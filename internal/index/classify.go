package index

// The structural classifier: the one piece of code in the tree that
// reads XML without tokenising it. Build and StreamIndexer run it over
// whole documents to find cut points; the pruning automaton
// (internal/scan) runs it over the subtrees a non-validating prune
// discards, where only element balance matters.

import "bytes"

// Status is the tri-state result of classifying one construct against
// the bytes in hand.
type Status uint8

const (
	// OK: the construct is complete.
	OK Status = iota
	// NeedMore: the construct extends past the end of the data; retry
	// with more bytes (at end of input it is unterminated).
	NeedMore
	// Malformed: the tokenising scanner is guaranteed to reject the
	// construct using only the bytes already seen ('<' inside a start
	// tag, bare or inside a closed quoted value).
	Malformed
)

// Classify classifies the construct starting at the structural '<' at
// data[off]: its kind and the offset just past it. It is context-free —
// the result depends only on bytes from off forward — and it checks
// structure only: names, attribute syntax, entities, character ranges
// and the interiors of comments, PIs and CDATA sections are not looked
// at, so on anything the tokenising scanner accepts the two agree on
// every extent, and on what it rejects the classifier is the more
// lenient of the two.
func Classify(data []byte, off int) (kind Kind, end int, st Status) {
	rest := data[off+1:]
	if len(rest) == 0 {
		return 0, 0, NeedMore
	}
	switch rest[0] {
	case '/':
		// "</name ... >". A malformed interior still gets an extent (the
		// first '>'): whoever tokenises the region reports the precise
		// error.
		k := bytes.IndexByte(rest, '>')
		if k < 0 {
			return End, 0, NeedMore
		}
		return End, off + 1 + k + 1, OK
	case '?':
		// PI: ends at the first "?>".
		k := bytes.Index(rest[1:], []byte("?>"))
		if k < 0 {
			return PI, 0, NeedMore
		}
		return PI, off + 2 + k + 2, OK
	case '!':
		if bytes.HasPrefix(rest, []byte("!--")) {
			k := bytes.Index(rest[3:], []byte("-->"))
			if k < 0 {
				return Comment, 0, NeedMore
			}
			return Comment, off + 4 + k + 3, OK
		}
		if bytes.HasPrefix(rest, []byte("![CDATA[")) {
			k := bytes.Index(rest[8:], []byte("]]>"))
			if k < 0 {
				return CDATA, 0, NeedMore
			}
			return CDATA, off + 9 + k + 3, OK
		}
		return classifyDirective(data, off)
	default:
		return classifyStartTag(data, off)
	}
}

// entryAt is Classify as an index entry. Sym is left at -1: resolveSym
// fills it for the tags that need one.
func entryAt(data []byte, off int) (Entry, Status) {
	kind, end, st := Classify(data, off)
	return Entry{Off: off, End: end, Sym: -1, Kind: kind}, st
}

// tagByte marks the bytes that matter inside a start tag: its end, the
// quotes that can hide one, and the '<' that cannot be there.
var tagByte = [256]bool{'>': true, '"': true, '\'': true, '<': true}

// classifyStartTag scans "<name attr='...' ...>" respecting quotes ('>'
// is legal inside a quoted attribute value). A '<' inside the tag —
// quoted or not — is malformed: the tokenising scanner is guaranteed to
// error at that byte with no later input needed, which is what lets a
// caller with a bounded window distinguish it from a tag merely cut
// short (NeedMore).
func classifyStartTag(data []byte, off int) (Kind, int, Status) {
	i := off + 1
	for i < len(data) {
		c := data[i]
		if !tagByte[c] {
			i++
			continue
		}
		switch c {
		case '>':
			if data[i-1] == '/' {
				return StartEmpty, i + 1, OK
			}
			return Start, i + 1, OK
		case '<':
			return Start, 0, Malformed
		}
		k := bytes.IndexByte(data[i+1:], c)
		if k < 0 {
			return Start, 0, NeedMore
		}
		if bytes.IndexByte(data[i+1:i+1+k], '<') >= 0 {
			return Start, 0, Malformed
		}
		i += k + 2
	}
	return Start, 0, NeedMore
}

// classifyDirective scans a "<!DOCTYPE ...>"-style directive with the
// tokenising scanner's rules: the byte after "<!" is not interpreted,
// quoted angle brackets are ignored, nested <...> groups are tracked by
// depth, and comments inside are skipped.
func classifyDirective(data []byte, off int) (Kind, int, Status) {
	inquote := byte(0)
	depth := 0
	i := off + 3
	for i < len(data) {
		b := data[i]
		i++
		if inquote == 0 && b == '>' && depth == 0 {
			return Directive, i, OK
		}
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>' && depth > 0:
			depth--
		case b == '<':
			if bytes.HasPrefix(data[i:], []byte("!--")) {
				k := bytes.Index(data[i+3:], []byte("-->"))
				if k < 0 {
					return Directive, 0, NeedMore
				}
				i += 3 + k + 3
			} else {
				depth++
			}
		}
	}
	return Directive, 0, NeedMore
}

// resolveSym sets a tag entry's Sym: the DTD symbol of its name, -1
// when there is no lookup or the name is not declared.
func (e *Entry) resolveSym(data []byte, lookup func([]byte) (int32, bool)) {
	name := e.Off + 1
	switch e.Kind {
	case Start, StartEmpty, Element:
	case End:
		name++
	default:
		return
	}
	e.Sym = -1
	if lookup != nil {
		if local := localOf(nameAt(data[name:])); len(local) > 0 {
			if sym, ok := lookup(local); ok {
				e.Sym = sym
			}
		}
	}
}

// nameAt returns the leading XML-name byte run of b (the tag name).
func nameAt(b []byte) []byte {
	i := 0
	for i < len(b) && isNameByte(b[i]) {
		i++
	}
	return b[:i]
}

// localOf strips a single namespace prefix, mirroring scan.splitName's
// accepted shape; names it would reject return nil (Sym stays -1).
func localOf(name []byte) []byte {
	first := -1
	n := 0
	for i, c := range name {
		if c == ':' {
			if first < 0 {
				first = i
			}
			n++
		}
	}
	if n > 1 {
		return nil
	}
	if n == 1 && first > 0 && first < len(name)-1 {
		return name[first+1:]
	}
	return name
}

// isNameByte mirrors scan.isNameByte: single-byte characters allowed
// inside names, with multi-byte runes accepted permissively.
func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' ||
		'a' <= c && c <= 'z' ||
		'0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-' ||
		c >= 0x80
}
