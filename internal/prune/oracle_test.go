package prune

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"

	"xmlproj/internal/dtd"
	"xmlproj/internal/scan/scantest"
)

// The oracle: the encoding/xml pruner the byte-level scanner replaced,
// kept out of the build as the second presentation of §6's pruner. It
// shares nothing with internal/scan — its tokens come from encoding/xml,
// ℑ is a concatenated name (dtd.TextName, dtd.AttrName) looked up in the
// name set — π ∩ DN(E): a name the grammar does not define is in no π —,
// content models are stepped by name with derivatives of the
// dtd.Regex (derive) rather than through dtd.DenseDFA's tables, and
// output is escaped by a strings.Replacer — so agreement with the
// scanner in verdict, bytes and stats (differential_test.go,
// FuzzStreamDifferential) is agreement between two implementations.
// BenchmarkStreamPrune/decoder keeps its speed on record.

// oracleStream prunes src to dst with the oracle, returning what Stream
// returns: stats with BytesOut, and errors under the "prune: " prefix.
func oracleStream(dst io.Writer, src io.Reader, d *dtd.DTD, pi dtd.NameSet, validate bool) (Stats, error) {
	written := &countingWriter{w: dst}
	bw := bufio.NewWriter(written)
	st, err := decode(bw, src, d, pi, validate)
	if err == nil {
		err = bw.Flush()
	}
	st.BytesOut = written.n
	if err != nil {
		err = fmt.Errorf("prune: %w", err)
	}
	return st, err
}

// oracleString is oracleStream over strings.
func oracleString(src string, d *dtd.DTD, pi dtd.NameSet, validate bool) (string, Stats, error) {
	var sb strings.Builder
	st, err := oracleStream(&sb, strings.NewReader(src), d, pi, validate)
	return sb.String(), st, err
}

// The canonical escaping of character data and of a double-quoted
// attribute value: &, < and > become entities, " in a value, and a
// carriage return a reference.
var (
	escapeText = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\r", "&#13;")
	escapeAttr = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "\r", "&#13;")
)

// decode is the encoding/xml pruner. It does not flush bw. encoding/xml
// does not check XML 1.0's Unique Att Spec, so decode does, on every
// start tag, kept or skipped, with the names read off the tag's bytes
// (scantest.RepeatedAttr, the one copy the loader's oracle shares).
func decode(bw *bufio.Writer, src io.Reader, d *dtd.DTD, pi dtd.NameSet, validate bool) (Stats, error) {
	var stats Stats
	syms := d.Symbols()
	keeps := func(n dtd.Name) bool {
		_, in := pi[n]
		_, defined := syms.Sym(n)
		return in && defined
	}
	data, err := io.ReadAll(src)
	if err != nil {
		return stats, err
	}
	dec := xml.NewDecoder(bytes.NewReader(data))
	token := func() (xml.Token, error) {
		at := dec.InputOffset()
		tok, err := dec.Token()
		if _, ok := tok.(xml.StartElement); ok && err == nil {
			if name := scantest.RepeatedAttr(data[at:dec.InputOffset()]); name != "" {
				return nil, fmt.Errorf("attribute %s repeated", name)
			}
		}
		return tok, err
	}

	type frame struct {
		name  dtd.Name
		def   *dtd.Def
		model []dtd.Regex // content-model derivatives (when validating)
	}
	var stack []frame
	sawRoot := false
	// open is true while the most recent start tag is still unclosed in
	// the output (no '>' written yet), enabling <e/> self-closing output.
	open := false
	closeOpen := func() {
		if open {
			bw.WriteString(">")
			open = false
		}
	}

	// text accumulates the current logical text node: consecutive
	// character-data chunks (split by the decoder at entity and CDATA
	// boundaries) coalesced, with whitespace-only chunks dropped, exactly
	// as the tree parser merges them. The run is counted, validated and
	// written once, when the next tag ends it.
	var text strings.Builder
	flushText := func() error {
		if text.Len() == 0 {
			return nil
		}
		s := text.String()
		text.Reset()
		stats.TextIn++
		top := &stack[len(stack)-1]
		tn := dtd.TextName(top.name)
		if validate {
			top.model = derive(top.model, tn)
			if len(top.model) == 0 {
				return fmt.Errorf("text content not allowed in %s", top.name)
			}
		}
		if keeps(tn) {
			closeOpen()
			escapeText.WriteString(bw, s)
			stats.TextOut++
		}
		return nil
	}

	for {
		at := dec.InputOffset()
		tok, err := token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return stats, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if err := flushText(); err != nil {
				return stats, err
			}
			if len(stack) == 0 && sawRoot {
				return stats, fmt.Errorf("multiple root elements")
			}
			stats.ElementsIn++
			sawRoot = true
			tag := t.Name.Local
			name, ok := d.ByTag[tag]
			if !ok {
				return stats, fmt.Errorf("element %q not declared in DTD", tag)
			}
			if len(stack) == 0 && validate && name != d.Root {
				return stats, fmt.Errorf("root element is %s, DTD requires %s", name, d.Root)
			}
			if validate && len(stack) > 0 {
				top := &stack[len(stack)-1]
				top.model = derive(top.model, name)
				if len(top.model) == 0 {
					return stats, fmt.Errorf("element %s not allowed here in content of %s", name, top.name)
				}
			}
			if !keeps(name) {
				// Constant memory: the decoder discards the whole subtree
				// without materialising it, counting what it scans past.
				// The skipped subtree still counts as validated only
				// shallowly; the paper's pruner behaves the same way
				// (discarded data is not needed, hence not checked deeply).
				if err := skipSubtree(token, &stats, validate); err != nil {
					return stats, err
				}
				continue
			}
			def := d.Defs[name]
			closeOpen()
			if err := writeStart(bw, tag, t.Attr, def, keeps, validate); err != nil {
				return stats, err
			}
			open = true
			stack = append(stack, frame{name: name, def: def, model: []dtd.Regex{def.Content}})
			if len(stack) > stats.MaxDepth {
				stats.MaxDepth = len(stack)
			}
		case xml.EndElement:
			if len(stack) == 0 {
				return stats, fmt.Errorf("unbalanced end element %s", t.Name.Local)
			}
			if err := flushText(); err != nil {
				return stats, err
			}
			top := stack[len(stack)-1]
			if validate && !slices.ContainsFunc(top.model, nullable) {
				return stats, fmt.Errorf("content of %s is incomplete (model %s)", top.name, top.def.Content)
			}
			stack = stack[:len(stack)-1]
			if open {
				bw.WriteString("/>")
				open = false
			} else {
				bw.WriteString("</")
				bw.WriteString(t.Name.Local)
				bw.WriteString(">")
			}
			stats.ElementsOut++
		case xml.CharData:
			if len(stack) == 0 {
				// Only whitespace may stand outside the root; a byte-order
				// mark opening the document is none of its text.
				if at == 0 {
					t = bytes.TrimPrefix(t, []byte("\ufeff"))
				}
				if !allSpace(t) {
					return stats, fmt.Errorf("text outside the root element")
				}
				continue
			}
			if allSpace(t) {
				continue
			}
			text.Write(t)
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Outside the data model; dropped (the paper's pruner keeps
			// only elements, attributes and text). The surrounding
			// character data stays one logical text node, as in the tree
			// parser, so the run is not flushed here.
		}
	}
	if len(stack) != 0 {
		return stats, fmt.Errorf("unterminated element %s", stack[len(stack)-1].name)
	}
	if !sawRoot {
		return stats, fmt.Errorf("no root element in input")
	}
	return stats, nil
}

// derive steps a content model by one child name: the derivatives by n
// of every regex in the set rs (Brzozowski's, kept as a set of terms),
// deduplicated by String(). The set starts as {content model}, is
// accepting when a member is nullable and dead when empty.
func derive(rs []dtd.Regex, n dtd.Name) []dtd.Regex {
	var out []dtd.Regex
	seen := map[string]bool{}
	for _, r := range rs {
		for _, d := range derivatives(r, n) {
			if k := d.String(); !seen[k] {
				seen[k] = true
				out = append(out, d)
			}
		}
	}
	return out
}

// derivatives returns the terms that match what may follow n in a
// sequence r matches. r* and r+ derive r on its own and append r*:
// deriving r* by unrolling it to (r, r*) would recurse forever on a
// nullable r.
func derivatives(r dtd.Regex, n dtd.Name) []dtd.Regex {
	var out []dtd.Regex
	then := func(ds []dtd.Regex, rest dtd.Regex) {
		for _, d := range ds {
			if _, ok := d.(dtd.Epsilon); ok {
				out = append(out, rest)
			} else {
				out = append(out, dtd.Seq{Items: []dtd.Regex{d, rest}})
			}
		}
	}
	switch x := r.(type) {
	case dtd.Ref:
		if x.Name == n {
			out = append(out, dtd.Epsilon{})
		}
	case dtd.Seq:
		if len(x.Items) > 0 {
			rest := dtd.Seq{Items: x.Items[1:]}
			then(derivatives(x.Items[0], n), rest)
			if nullable(x.Items[0]) {
				out = append(out, derivatives(rest, n)...)
			}
		}
	case dtd.Alt:
		for _, it := range x.Items {
			out = append(out, derivatives(it, n)...)
		}
	case dtd.Star:
		then(derivatives(x.Inner, n), x)
	case dtd.Plus:
		then(derivatives(x.Inner, n), dtd.Star{Inner: x.Inner})
	case dtd.Opt:
		out = derivatives(x.Inner, n)
	}
	return out
}

// skipSubtree consumes the remainder of the current element — the
// equivalent of xml.Decoder.Skip — while counting the elements and,
// when validating, the logical text nodes scanned past (Stats defines
// TextIn and TextSkipped that way for every engine). Nothing is
// materialised; memory stays constant.
func skipSubtree(token func() (xml.Token, error), stats *Stats, countText bool) error {
	depth := 1
	// pending is true while a non-whitespace text run is open; runs merge
	// across comments and PIs, matching the main loop and the tree parser.
	pending := false
	flush := func() {
		if pending && countText {
			stats.TextIn++
			stats.TextSkipped++
		}
		pending = false
	}
	for depth > 0 {
		tok, err := token()
		if err != nil {
			return err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			flush()
			stats.ElementsIn++
			stats.ElementsSkipped++
			depth++
		case xml.EndElement:
			flush()
			depth--
		case xml.CharData:
			if !allSpace(t) {
				pending = true
			}
		}
	}
	return nil
}

func writeStart(bw *bufio.Writer, tag string, attrs []xml.Attr, def *dtd.Def, keeps func(dtd.Name) bool, validate bool) error {
	bw.WriteString("<")
	bw.WriteString(tag)
	var kept []string
	for _, a := range attrs {
		if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
			continue
		}
		if validate {
			ad := def.AttDef(a.Name.Local)
			if ad == nil {
				return fmt.Errorf("undeclared attribute %q on %s", a.Name.Local, tag)
			}
			if len(ad.Enum) > 0 && !inList(ad.Enum, a.Value) {
				return fmt.Errorf("attribute %q on %s has value %q outside its enumeration", a.Name.Local, tag, a.Value)
			}
			if ad.Fixed != "" && a.Value != ad.Fixed {
				return fmt.Errorf("attribute %q on %s must have fixed value %q", a.Name.Local, tag, ad.Fixed)
			}
		}
		if !keeps(dtd.AttrName(def.Name, a.Name.Local)) {
			continue
		}
		// The output drops prefixes, so two kept names that differ only
		// by theirs would be written as one name twice.
		if inList(kept, a.Name.Local) {
			return fmt.Errorf("two attributes named %s on %s differ only by prefix, which the projection drops", a.Name.Local, tag)
		}
		kept = append(kept, a.Name.Local)
		bw.WriteString(" ")
		bw.WriteString(a.Name.Local)
		bw.WriteString("=\"")
		escapeAttr.WriteString(bw, a.Value)
		bw.WriteString("\"")
	}
	if validate {
		for i := range def.Atts {
			ad := &def.Atts[i]
			if !ad.Required {
				continue
			}
			if !hasAttr(attrs, ad.Attr) {
				return fmt.Errorf("missing required attribute %q on %s", ad.Attr, tag)
			}
		}
	}
	return nil
}

// allSpace reports whether the chunk is whitespace-only, without the
// string conversion that strings.TrimSpace(string(t)) would allocate on
// every character-data token.
func allSpace(b []byte) bool {
	i := 0
	for i < len(b) && b[i] < utf8.RuneSelf {
		switch b[i] {
		case ' ', '\t', '\n', '\r', '\v', '\f':
			i++
		default:
			return false
		}
	}
	for i < len(b) {
		r, size := utf8.DecodeRune(b[i:])
		if !unicode.IsSpace(r) {
			return false
		}
		i += size
	}
	return true
}

func inList(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func hasAttr(attrs []xml.Attr, name string) bool {
	for _, a := range attrs {
		if a.Name.Local == name {
			return true
		}
	}
	return false
}

// nullable reports whether r matches the empty sequence.
func nullable(r dtd.Regex) bool {
	switch x := r.(type) {
	case dtd.Epsilon, nil:
		return true
	case dtd.Ref:
		return false
	case dtd.Seq:
		for _, it := range x.Items {
			if !nullable(it) {
				return false
			}
		}
		return true
	case dtd.Alt:
		for _, it := range x.Items {
			if nullable(it) {
				return true
			}
		}
		return false
	case dtd.Star, dtd.Opt:
		return true
	case dtd.Plus:
		return nullable(x.Inner)
	}
	return false
}
