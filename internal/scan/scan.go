// Package scan is a byte-level streaming XML scanner purpose-built for
// type-based projection (§6 of the paper: pruning fused with parsing).
// Unlike encoding/xml it materialises nothing: tags, attributes and text
// are handled as sub-slices of an internal sliding read buffer, element
// tags resolve through a byte-keyed symbol table, and projector
// membership is a dense mask array lookup. Subtrees outside π are
// discarded by a validate-only skip scan that never builds tokens, and
// whatever the input already spells canonically — tags with nothing
// dropped, text with nothing to escape — reaches the output as verbatim
// spans of the read buffer.
//
// The scanner mirrors encoding/xml's strict-mode tokenizer behaviour
// byte for byte (entity rules, \r normalisation, character validation,
// "]]>" rejection, directive nesting), so the two pruning paths accept
// the same documents and produce identical output; the differential
// tests in internal/prune hold it to that.
package scan

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"unicode"
	"unicode/utf8"
)

// defaultBufSize is the initial sliding-buffer size. The buffer grows
// only when a single token (one text chunk, one tag) exceeds it, so
// memory stays proportional to token size, not document size.
const defaultBufSize = 64 << 10

// DefaultMaxTokenSize bounds the sliding buffer's growth when the
// caller does not set a limit: a single token (one tag, one text chunk,
// one attribute value) larger than this fails with ErrTokenTooLong
// instead of growing the buffer without bound on hostile input.
const DefaultMaxTokenSize = 8 << 20

// ErrTokenTooLong reports that a single token exceeded the scanner's
// maximum token size.
var ErrTokenTooLong = fmt.Errorf("xml token exceeds the scanner's maximum token size")

// ErrNotUTF8 reports input whose first bytes are a UTF-16 or UTF-32
// byte-order mark or a null-padded '<'. The scanner reads UTF-8 only
// (as encoding/xml does without a CharsetReader), and says so up front
// instead of tripping over the first padded byte with a syntax error.
// The wrapped message names the encoding family detected.
var ErrNotUTF8 = fmt.Errorf("input is not UTF-8")

// checkEncoding sniffs the head of a document for UTF-16/32. It is
// called before anything is consumed; a UTF-8 byte-order mark and any
// <?xml encoding?> declaration are left to the tokenizer.
func (s *Scanner) checkEncoding() error {
	h := s.Peek(4)
	pair := func(i int, a, b byte) bool { return len(h) >= i+2 && h[i] == a && h[i+1] == b }
	family := ""
	switch {
	case pair(0, 0, 0) && (pair(2, 0xFE, 0xFF) || pair(2, 0, '<')),
		(pair(0, 0xFF, 0xFE) || pair(0, '<', 0)) && pair(2, 0, 0):
		family = "UTF-32"
	case pair(0, 0xFE, 0xFF), pair(0, 0xFF, 0xFE), pair(0, '<', 0), pair(0, 0, '<'):
		family = "UTF-16"
	default:
		return nil
	}
	return fmt.Errorf("%w: it looks like %s; transcode to UTF-8 first", ErrNotUTF8, family)
}

// Scanner is the low-level byte source: a sliding buffer over an
// io.Reader with mark-based span retention, plus the tokenization
// primitives shared by the emitting pruner and the skip scanner.
type Scanner struct {
	r        io.Reader
	buf      []byte
	pos      int // next unread byte
	end      int // buf[pos:end] holds valid data
	mark     int // earliest byte that must survive a refill; -1 when none
	rerr     error
	maxToken int // buffer growth cap; 0 means DefaultMaxTokenSize

	// beforeFill, when set, runs before fill moves buffered bytes: whoever
	// holds offsets into buf that are not protected by the mark (the
	// pruner's pending output runs) settles them there.
	beforeFill func()

	// ownBuf preserves the scanner-owned buffer across ResetBytes (which
	// aliases buf to caller data) so Reset can restore it.
	ownBuf []byte

	// nameCache memoises full XML-name validation for the rare names
	// that are not pure ASCII (checked by delegating to encoding/xml,
	// keeping the two paths' notion of a valid name identical). A pooled
	// scanner outlives its documents: the memo is emptied at maxNameCache.
	nameCache map[string]bool
}

const maxNameCache = 1024

// NewScanner returns a scanner reading from r.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{r: r, buf: make([]byte, defaultBufSize), mark: -1}
}

// Reset reuses the scanner (and its buffer) for a new input.
func (s *Scanner) Reset(r io.Reader) {
	if s.ownBuf != nil {
		s.buf, s.ownBuf = s.ownBuf, nil
	}
	s.r = r
	s.pos, s.end = 0, 0
	s.mark = -1
	s.rerr = nil
}

// ResetBytes reuses the scanner over an in-memory input without
// copying: the buffer aliases data and the read error is preset to
// io.EOF, so fill never compacts, grows, or reads — every mark-based
// span is a direct view into data. The caller must not mutate data
// while the scanner is in use; Reset restores the scanner-owned buffer.
func (s *Scanner) ResetBytes(data []byte) {
	if s.ownBuf == nil {
		s.ownBuf = s.buf
	}
	s.r = nil
	s.buf = data
	s.pos, s.end = 0, len(data)
	s.mark = -1
	s.rerr = io.EOF
}

// ResetBytesAt is ResetBytes restricted to the window data[lo:hi]:
// scanning starts at lo and input ends at hi, while positions — and
// therefore the spans a gather emitter records — remain absolute
// offsets into data. Parallel fragment workers use it so their gather
// lists splice into the spine by plain concatenation, no rebasing.
func (s *Scanner) ResetBytesAt(data []byte, lo, hi int) {
	s.ResetBytes(data[:hi])
	s.pos = lo
}

// SetMaxTokenSize bounds the buffer growth a single token may force;
// n <= 0 restores DefaultMaxTokenSize. Tokens already fitting the
// current buffer are unaffected.
func (s *Scanner) SetMaxTokenSize(n int) { s.maxToken = n }

// Peek returns up to n buffered bytes without consuming them.
func (s *Scanner) Peek(n int) []byte {
	for s.end-s.pos < n && s.fill() {
	}
	if s.end-s.pos < n {
		n = s.end - s.pos
	}
	return s.buf[s.pos : s.pos+n]
}

// fill reads more data, compacting the buffer from the mark (or the
// read position) first. Returns false when no byte was added.
func (s *Scanner) fill() bool {
	if s.rerr != nil {
		return false
	}
	if s.beforeFill != nil {
		s.beforeFill()
	}
	base := s.pos
	if s.mark >= 0 && s.mark < base {
		base = s.mark
	}
	if base > 0 {
		copy(s.buf, s.buf[base:s.end])
		s.pos -= base
		s.end -= base
		if s.mark >= 0 {
			s.mark -= base
		}
	} else if s.end == len(s.buf) {
		// A single token larger than the buffer: grow, up to the
		// configured cap — hostile input must not take memory hostage.
		max := s.maxToken
		if max <= 0 {
			max = DefaultMaxTokenSize
		}
		if len(s.buf) >= max {
			s.rerr = fmt.Errorf("%w (%d bytes)", ErrTokenTooLong, max)
			return false
		}
		n := 2 * len(s.buf)
		if n > max {
			n = max
		}
		nb := make([]byte, n)
		copy(nb, s.buf[:s.end])
		s.buf = nb
	}
	// io.Reader permits (0, nil); bound the retries so a pathological
	// reader errors instead of hanging the prune (as bufio does).
	for i := 0; i < 100; i++ {
		n, err := s.r.Read(s.buf[s.end:len(s.buf):len(s.buf)])
		s.end += n
		if err != nil {
			s.rerr = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
	s.rerr = io.ErrNoProgress
	return false
}

// getc returns the next byte. ok is false at end of input or on a read
// error; the caller distinguishes via readErr.
func (s *Scanner) getc() (byte, bool) {
	if s.pos < s.end {
		b := s.buf[s.pos]
		s.pos++
		return b, true
	}
	if s.fill() {
		b := s.buf[s.pos]
		s.pos++
		return b, true
	}
	return 0, false
}

// ungetc backs up one byte. Valid immediately after a successful getc.
func (s *Scanner) ungetc() { s.pos-- }

// readErr converts the pending read error for a caller that needed more
// input: io.EOF mid-construct becomes a syntax error, like
// encoding/xml's mustgetc.
func (s *Scanner) readErr() error {
	if s.rerr == io.EOF || s.rerr == nil {
		return errSyntax("unexpected EOF")
	}
	return s.rerr
}

// atEOF reports whether input ended cleanly.
func (s *Scanner) atEOF() bool { return s.rerr == io.EOF }

// setMark pins the current position: bytes from here on survive
// refills, so spans relative to the mark stay valid.
func (s *Scanner) setMark() { s.mark = s.pos }

// clearMark releases the pin.
func (s *Scanner) clearMark() { s.mark = -1 }

// marked returns the span from the mark to the current position.
func (s *Scanner) marked() []byte { return s.buf[s.mark:s.pos] }

// errSyntax builds a syntax error. The message format intentionally
// resembles encoding/xml's so operators see familiar diagnostics, but
// the differential contract only requires that the two paths agree on
// *whether* an input errors, not on the message.
func errSyntax(msg string) error { return fmt.Errorf("XML syntax error: %s", msg) }

// space skips the tag-level whitespace set (space, CR, LF, tab) —
// exactly encoding/xml's space(), which is narrower than Unicode
// whitespace.
func (s *Scanner) space() {
	for {
		b, ok := s.getc()
		if !ok {
			return
		}
		if b != ' ' && b != '\r' && b != '\n' && b != '\t' {
			s.ungetc()
			return
		}
	}
}

// isNameByte mirrors encoding/xml: the single-byte characters allowed
// inside names. Multi-byte runes are accepted here and validated by
// checkName.
func isNameByte(c byte) bool {
	return class[c]&cName != 0 || c == ':' || c >= utf8.RuneSelf
}

// plainName is the name kernel: it consumes the name at the read position
// when it is ASCII, has no colon and ends inside the buffered bytes — a
// valid name and its own local part — and reports whether it did.
// Anything else is left, nothing consumed, for readName, checkName and
// splitName to take from this byte.
func (s *Scanner) plainName() bool {
	i := s.pos
	if i == s.end || class[s.buf[i]]&cNameStart == 0 {
		return false
	}
	for i++; i < s.end && class[s.buf[i]]&cName != 0; i++ {
	}
	if i == s.end || isNameByte(s.buf[i]) {
		return false
	}
	s.pos = i
	return true
}

// closes consumes the rest of an end tag, after its "</", when it is name
// and '>' and nothing else, and reports whether it did. name is the open
// element's, validated where it opened, so equal bytes need no second
// check; any other tag, or one the buffer cuts short, is left to tokenise.
func closes[T string | []byte](s *Scanner, name T) bool {
	n := len(name)
	if s.end-s.pos <= n || s.buf[s.pos+n] != '>' || string(s.buf[s.pos:s.pos+n]) != string(name) {
		return false
	}
	s.pos += n + 1
	return true
}

// readName consumes a name (per encoding/xml's readName byte rules).
// ok is false when no name byte is present. The scanner's buffer slides
// under refills, so callers recover the name span mark-relative: record
// rel = s.pos - s.mark before the call (with a mark already held) and
// slice s.buf[s.mark+rel : s.pos] after it.
func (s *Scanner) readName() (ok bool, err error) {
	// A name that ends inside the buffered bytes — all but the one a
	// refill cuts — needs no byte-at-a-time reads.
	i := s.pos
	for i < s.end && isNameByte(s.buf[i]) {
		i++
	}
	if i < s.end {
		ok = i > s.pos
		s.pos = i
		return ok, nil
	}
	b, got := s.getc()
	if !got {
		return false, s.readErr()
	}
	if !isNameByte(b) {
		s.ungetc()
		return false, nil
	}
	for {
		b, got = s.getc()
		if !got {
			return false, s.readErr()
		}
		if !isNameByte(b) {
			s.ungetc()
			return true, nil
		}
	}
}

// checkName validates a scanned name against the full XML Name
// production, the way encoding/xml's isName does. ASCII names are
// checked directly; names with multi-byte runes are validated by
// running them through encoding/xml itself (memoised — such names are
// vanishingly rare on real documents).
func (s *Scanner) checkName(name []byte) bool {
	if len(name) == 0 {
		return false
	}
	c := name[0]
	if c < utf8.RuneSelf {
		if !('A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':') {
			return false
		}
		ascii := true
		for _, b := range name[1:] {
			if b >= utf8.RuneSelf {
				ascii = false
				break
			}
		}
		if ascii {
			return true // tail bytes already passed isNameByte
		}
	}
	key := string(name)
	if v, ok := s.nameCache[key]; ok {
		return v
	}
	dec := xml.NewDecoder(strings.NewReader("<" + key + "/>"))
	_, err := dec.Token()
	if s.nameCache == nil {
		s.nameCache = make(map[string]bool)
	} else if len(s.nameCache) >= maxNameCache {
		clear(s.nameCache)
	}
	s.nameCache[key] = err == nil
	return err == nil
}

// splitName applies encoding/xml's nsname rule to a full name: more
// than one colon is malformed; one colon with non-empty halves splits
// off the prefix; otherwise the whole name is the local name (and the
// prefix is empty, even when the name contains a colon at an edge).
func splitName(name []byte) (prefix, local []byte, ok bool) {
	first := -1
	n := 0
	for i, b := range name {
		if b == ':' {
			if first < 0 {
				first = i
			}
			n++
		}
	}
	if n > 1 {
		return nil, nil, false
	}
	if n == 1 && first > 0 && first < len(name)-1 {
		return name[:first], name[first+1:], true
	}
	return nil, name, true
}

// isXMLNSAttr reports whether a split attribute name is a namespace
// declaration, exactly as the decoder-based pruner decides it: the
// prefix is "xmlns" or the local name is "xmlns".
func isXMLNSAttr(prefix, local []byte) bool {
	return string(prefix) == "xmlns" || string(local) == "xmlns"
}

// isInCharacterRange is the XML Char production, as in encoding/xml.
func isInCharacterRange(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// decodeEntity consumes a character reference after its '&' and returns
// the decoded rune, mirroring encoding/xml's strict handling: the five
// predefined entities, decimal and hex character references (values
// above MaxRune rejected, surrogates replaced like string(rune)
// conversion), anything else is a syntax error.
func (s *Scanner) decodeEntity() (rune, error) {
	b, ok := s.getc()
	if !ok {
		return 0, s.readErr()
	}
	if b == '#' {
		base := 10
		b, ok = s.getc()
		if !ok {
			return 0, s.readErr()
		}
		if b == 'x' {
			base = 16
			b, ok = s.getc()
			if !ok {
				return 0, s.readErr()
			}
		}
		var n uint64
		digits := 0
		for {
			var v byte
			switch {
			case '0' <= b && b <= '9':
				v = b - '0'
			case base == 16 && 'a' <= b && b <= 'f':
				v = b - 'a' + 10
			case base == 16 && 'A' <= b && b <= 'F':
				v = b - 'A' + 10
			default:
				goto done
			}
			digits++
			if n <= 1<<32 { // saturate; anything this big is already invalid
				n = n*uint64(base) + uint64(v)
			}
			b, ok = s.getc()
			if !ok {
				return 0, s.readErr()
			}
		}
	done:
		if b != ';' {
			s.ungetc()
			return 0, errSyntax("invalid character entity (no semicolon)")
		}
		if digits == 0 || n > unicode.MaxRune {
			return 0, errSyntax("invalid character entity")
		}
		r := rune(n)
		if !utf8.ValidRune(r) {
			r = utf8.RuneError // string(rune) conversion semantics
		}
		return r, nil
	}
	// Named entity: collect name bytes into a small local buffer (the
	// recognised names are at most four bytes; anything longer errors
	// anyway), require ';', and accept only the five predefined names —
	// custom <!ENTITY> definitions are not resolved, exactly like
	// encoding/xml with a nil Entity map in strict mode.
	var name [8]byte
	n := 0
	for isNameByte(b) {
		if n < len(name) {
			name[n] = b
			n++
		} else {
			n = len(name) + 1 // too long: cannot be predefined
		}
		b, ok = s.getc()
		if !ok {
			return 0, s.readErr()
		}
	}
	if b != ';' {
		s.ungetc()
		return 0, errSyntax("invalid character entity (no semicolon)")
	}
	if n <= len(name) {
		switch string(name[:n]) {
		case "lt":
			return '<', nil
		case "gt":
			return '>', nil
		case "amp":
			return '&', nil
		case "apos":
			return '\'', nil
		case "quot":
			return '"', nil
		}
	}
	return 0, errSyntax("invalid character entity")
}

// skipComment consumes a comment after "<!--", enforcing the strict
// "--" rule: the only legal occurrence of "--" is the closing "-->".
func (s *Scanner) skipComment() error {
	var b0, b1 byte
	for {
		b, ok := s.getc()
		if !ok {
			return s.readErr()
		}
		if b0 == '-' && b1 == '-' {
			if b != '>' {
				return errSyntax(`invalid sequence "--" not allowed in comments`)
			}
			return nil
		}
		b0, b1 = b1, b
	}
}

// skipDirective consumes a <!DOCTYPE ...>-style directive after its
// "<!" and first byte, reproducing encoding/xml's nesting rules: quoted
// angle brackets are ignored, nested "<...>" groups tracked by depth,
// and comments inside the directive skipped.
func (s *Scanner) skipDirective() error {
	inquote := byte(0)
	depth := 0
	for {
		b, ok := s.getc()
		if !ok {
			return s.readErr()
		}
		if inquote == 0 && b == '>' && depth == 0 {
			return nil
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
			// quoted: no special meaning
		case b == '\'' || b == '"':
			inquote = b
		case b == '>' && depth > 0:
			depth--
		case b == '<':
			// "<!--" opens a comment inside the directive; any other
			// "<" increases nesting.
			lead := [3]byte{'!', '-', '-'}
			for i := 0; i < 3; i++ {
				if b, ok = s.getc(); !ok {
					return s.readErr()
				}
				if b != lead[i] {
					depth++
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if b, ok = s.getc(); !ok {
					return s.readErr()
				}
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
}

// skipPI consumes a processing instruction after "<?": the target name
// is validated, and an <?xml?> declaration gets the same version and
// encoding checks as encoding/xml (no CharsetReader: any non-UTF-8
// declared encoding is an error on both paths; UTF-16/32 input never
// gets here, see checkEncoding). Any mark the caller holds is dropped.
func (s *Scanner) skipPI() error {
	s.setMark()
	ok, err := s.readName()
	if err != nil {
		s.clearMark()
		return err
	}
	if !ok || !s.checkName(s.marked()) {
		s.clearMark()
		return errSyntax("expected target name after <?")
	}
	isXMLDecl := string(s.marked()) == "xml"
	s.space()
	if !isXMLDecl {
		s.clearMark()
		var b0 byte
		for {
			b, got := s.getc()
			if !got {
				return s.readErr()
			}
			if b0 == '?' && b == '>' {
				return nil
			}
			b0 = b
		}
	}
	contentRel := s.pos - s.mark
	var b0 byte
	for {
		b, got := s.getc()
		if !got {
			s.clearMark()
			return s.readErr()
		}
		if b0 == '?' && b == '>' {
			break
		}
		b0 = b
	}
	content := string(s.buf[s.mark+contentRel : s.pos-2])
	s.clearMark()
	if ver := procInstParam("version", content); ver != "" && ver != "1.0" {
		return fmt.Errorf("xml: unsupported version %q; only version 1.0 is supported", ver)
	}
	if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return fmt.Errorf("xml: encoding %q declared but the input is not UTF-8", enc)
	}
	return nil
}

// procInstParam extracts a param="..." value from an <?xml?>
// declaration, as encoding/xml's procInst does.
func procInstParam(param, s string) string {
	param = param + "="
	lenp := len(param)
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || lenp+k >= len(sub) {
			return ""
		}
		i += lenp + k + 1
		if c := sub[lenp+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// textInfo describes a decoded text chunk.
type textInfo struct {
	// ws is true when every decoded rune is Unicode whitespace (the
	// pruner drops such chunks, like the tree parser's TrimSpace test).
	ws bool
	// verbatim is true when the chunk's raw input bytes are already in
	// canonical output form: no entity was decoded, no \r was
	// normalised, and no '>' occurs (the escaper would rewrite it). The
	// pruner emits such chunks as spans of the input.
	verbatim bool
}

// Byte classes: what the text and name kernels ask of a byte. Which
// classes end a run of plain character data depends on where the run
// stands, so a run is measured against a mask; cGT and cNonSpace only say
// what a run holding the byte has stopped being, verbatim or all space.
const (
	cMarkup    uint16 = 1 << iota // '<' and '&'
	cGT                           // '>': plain to a reader, rewritten by the output escaper
	cCR                           // '\r', normalised to '\n'
	cBracket                      // ']', which may begin "]]>"
	cDQuote                       // '"'
	cSQuote                       // '\''
	cCheck                        // not plain ASCII: an illegal control byte, or part of a multi-byte rune
	cNonSpace                     // anything but ' ', '\t', '\n'
	cNameStart                    // A-Z a-z _
	cName                         // cNameStart and 0-9 . -
)

var class = func() (t [256]uint16) {
	for c := range t {
		switch b := byte(c); {
		case b == ' ', b == '\t', b == '\n', b == '\r':
		case b < ' ', b >= utf8.RuneSelf:
			t[c] = cCheck
		case 'A' <= b && b <= 'Z', 'a' <= b && b <= 'z', b == '_':
			t[c] = cNonSpace | cNameStart | cName
		case '0' <= b && b <= '9', b == '.', b == '-':
			t[c] = cNonSpace | cName
		default:
			t[c] = cNonSpace
		}
	}
	for b, c := range map[byte]uint16{'<': cMarkup, '&': cMarkup, '>': cGT, '\r': cCR, ']': cBracket, '"': cDQuote, '\'': cSQuote} {
		t[b] |= c
	}
	return t
}()

// plainRun is the tokeniser's one loop over character data: the length of
// the run of buffered bytes at the read position that have no class in
// stop, and the classes that occur in it. Nothing is consumed.
func (s *Scanner) plainRun(stop uint16) (n int, seen uint16) {
	buf := s.buf[s.pos:s.end]
	for ; n < len(buf) && class[buf[n]]&stop == 0; n++ {
		seen |= class[buf[n]]
	}
	return n, seen
}

// plainChunk consumes the text chunk (quote < 0) or the attribute value
// and closing quote at the read position when one run answers all of it:
// plain ASCII with no '&', ']' or '\r', up to a terminator ('<', the
// quote) inside the buffered bytes. Such a chunk is valid and decodes to
// itself: it is returned as a view of the buffer, valid until the next
// read. Anything else is refused, nothing consumed, for text to take from
// this byte.
func (s *Scanner) plainChunk(quote int) (chunk []byte, info textInfo, ok bool) {
	term := byte('<')
	if quote >= 0 {
		term = byte(quote)
	}
	// The other quote is plain inside a quoted value; '<' has neither bit.
	n, seen := s.plainRun(cMarkup | cCR | cBracket | cCheck | class[term]&(cDQuote|cSQuote))
	end := s.pos + n
	if end == s.end || s.buf[end] != term {
		return nil, textInfo{}, false
	}
	chunk = s.buf[s.pos:end]
	if s.pos = end; quote >= 0 {
		s.pos++ // the closing quote
	}
	return chunk, textInfo{ws: seen&cNonSpace == 0, verbatim: seen&cGT == 0}, true
}

// text decodes character data into dst (appending) and returns the
// extended slice. quote is -1 for element content, or the quote byte
// for an attribute value; cdata selects CDATA-section rules. The
// behaviour mirrors encoding/xml's Decoder.text in strict mode:
// predefined and numeric entities, \r and \r\n normalised to \n, "]]>"
// rejected in unquoted chardata, '<' rejected inside quoted values, and
// the decoded result checked for UTF-8 validity and the XML Char range.
//
// The loop goes from one special byte to the next (plainRun) and
// bulk-copies the spans between them. It is the path for what plainChunk
// refuses; a caller that can use a view of the input tries that first.
func (s *Scanner) text(dst []byte, quote int, cdata bool) ([]byte, textInfo, error) {
	info := textInfo{verbatim: true}
	base := len(dst)
	// ']' matters only in unquoted chardata ("]]>"), '&' and '<' only
	// outside CDATA, '>' only for the verbatim flag (the output escaper
	// rewrites it; CDATA is re-escaped by the caller).
	stop := cCR | cBracket | cMarkup | cGT
	if cdata {
		stop = cCR | cBracket
	} else if quote >= 0 {
		stop = cCR | cMarkup | cGT | class[quote]&(cDQuote|cSQuote)
	}
loop:
	for {
		if s.pos == s.end && !s.fill() {
			if cdata {
				if !s.atEOF() {
					return dst, info, s.rerr
				}
				return dst, info, errSyntax("unexpected EOF in CDATA section")
			}
			break
		}
		chunk := s.buf[s.pos:s.end]
		j, _ := s.plainRun(stop)
		if j > 0 {
			dst = append(dst, chunk[:j]...)
			s.pos += j
			if j == len(chunk) {
				continue
			}
		}
		switch b := chunk[j]; b {
		case '<':
			if quote >= 0 {
				return dst, info, errSyntax("unescaped < inside quoted string")
			}
			break loop // not consumed; the caller reads the tag
		case '&':
			s.pos++
			r, err := s.decodeEntity()
			if err != nil {
				return dst, info, err
			}
			dst = utf8.AppendRune(dst, r)
			info.verbatim = false
		case '\r':
			s.pos++
			dst = append(dst, '\n')
			info.verbatim = false
			// \r\n collapses to the \n already written.
			if s.pos == s.end {
				s.fill()
			}
			if s.pos < s.end && s.buf[s.pos] == '\n' {
				s.pos++
			}
		case '>':
			s.pos++
			dst = append(dst, '>')
			info.verbatim = false
		case ']':
			// Collect the whole run of ']'s, then look at the byte after
			// it: "]]>" ends a CDATA section (chopping the "]]" already
			// appended) and is illegal in plain chardata.
			run := 0
			for {
				if s.pos == s.end && !s.fill() {
					break
				}
				if s.pos < s.end && s.buf[s.pos] == ']' {
					s.pos++
					run++
					dst = append(dst, ']')
					continue
				}
				break
			}
			if run >= 2 {
				if s.pos == s.end {
					s.fill()
				}
				if s.pos < s.end && s.buf[s.pos] == '>' {
					s.pos++
					if cdata {
						dst = dst[:len(dst)-2]
						break loop
					}
					return dst, info, errSyntax("unescaped ]]> not in CDATA section")
				}
			}
		default: // the quote byte ends an attribute value
			s.pos++
			break loop
		}
	}
	// Validate the decoded bytes: UTF-8 and the XML Char production,
	// computing whitespace-ness in the same pass. ASCII runs in a tight
	// byte loop; multi-byte runes fall back to full decoding.
	info.ws = true
	buf := dst[base:]
	i := 0
	for i < len(buf) {
		c := buf[i]
		if c >= utf8.RuneSelf {
			break
		}
		if c > ' ' { // 0x21–0x7F: always a valid, non-space XML char
			info.ws = false
			i++
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return dst, info, errSyntax(fmt.Sprintf("illegal character code %U", rune(c)))
		}
	}
	for i < len(buf) {
		r, size := utf8.DecodeRune(buf[i:])
		if r == utf8.RuneError && size == 1 {
			return dst, info, errSyntax("invalid UTF-8")
		}
		if !isInCharacterRange(r) {
			return dst, info, errSyntax(fmt.Sprintf("illegal character code %U", r))
		}
		if info.ws && !unicode.IsSpace(r) {
			info.ws = false
		}
		i += size
	}
	return dst, info, nil
}

// expectCDATA consumes the "[CDATA[" tail after "<![".
func (s *Scanner) expectCDATA() error {
	const tail = "CDATA["
	for i := 0; i < len(tail); i++ {
		b, ok := s.getc()
		if !ok {
			return s.readErr()
		}
		if b != tail[i] {
			return errSyntax("invalid <![ sequence")
		}
	}
	return nil
}

// markupKind is what markup found after a '<'.
type markupKind uint8

const (
	// markupStart: a start tag. Nothing past the '<' is consumed; the
	// scanner stands on the name's first byte.
	markupStart markupKind = iota
	// markupEnd: an end tag, "</" consumed.
	markupEnd
	// markupCDATA: a CDATA section, "<![CDATA[" consumed; its body is
	// next (text with cdata set).
	markupCDATA
	// markupNone: a comment, processing instruction or directive,
	// consumed whole — outside the data model.
	markupNone
)

// markup classifies the construct whose '<' was just consumed, and
// consumes the ones that carry no data. Any mark the caller holds does
// not survive a processing instruction (skipPI).
func (s *Scanner) markup() (markupKind, error) {
	b, ok := s.getc()
	if !ok {
		return markupNone, s.readErr()
	}
	switch b {
	case '/':
		return markupEnd, nil
	case '?':
		return markupNone, s.skipPI()
	case '!':
	default:
		s.ungetc()
		return markupStart, nil
	}
	if b, ok = s.getc(); !ok {
		return markupNone, s.readErr()
	}
	switch b {
	case '-':
		if b, ok = s.getc(); !ok {
			return markupNone, s.readErr()
		}
		if b != '-' {
			return markupNone, errSyntax("invalid sequence <!- not part of <!--")
		}
		return markupNone, s.skipComment()
	case '[':
		return markupCDATA, s.expectCDATA()
	}
	// Directive. The first byte after <! is accumulated uninterpreted,
	// as in encoding/xml.
	return markupNone, s.skipDirective()
}

// qname reads, validates and splits the name at the current position:
// plainName, or readName, checkName, splitName. what completes the
// diagnostic ("expected <what>"). A mark must be held at or before the
// name; the returned slices are views of the buffer, valid until the next read.
func (s *Scanner) qname(what string) (name, prefix, local []byte, err error) {
	rel := s.pos - s.mark
	if s.plainName() {
		name = s.buf[s.mark+rel : s.pos]
		return name, nil, name, nil
	}
	ok, err := s.readName()
	if err != nil {
		return nil, nil, nil, err
	}
	if !ok {
		return nil, nil, nil, errSyntax("expected " + what)
	}
	name = s.buf[s.mark+rel : s.pos]
	if !s.checkName(name) {
		return nil, nil, nil, errSyntax("invalid XML name: " + string(name))
	}
	prefix, local, ok = splitName(name)
	if !ok {
		return nil, nil, nil, errSyntax("expected " + what)
	}
	return name, prefix, local, nil
}

// endName tokenises an end tag after its "</" — name, space, '>' — and
// reports whether there was space. A mark must be held, as for qname.
func (s *Scanner) endName() (name, prefix, local []byte, spaced bool, err error) {
	rel := s.pos - s.mark
	ok, err := s.readName()
	if err != nil {
		return nil, nil, nil, false, err
	}
	if !ok {
		return nil, nil, nil, false, errSyntax("expected element name after </")
	}
	end := s.pos - s.mark
	s.space()
	spaced = s.pos-s.mark != end
	b, ok := s.getc()
	if !ok {
		return nil, nil, nil, false, s.readErr()
	}
	name = s.buf[s.mark+rel : s.mark+end]
	if b != '>' {
		return nil, nil, nil, false, errSyntax("invalid characters between </" + string(name) + " and >")
	}
	if !s.checkName(name) {
		return nil, nil, nil, false, errSyntax("invalid XML name: " + string(name))
	}
	if prefix, local, ok = splitName(name); !ok {
		return nil, nil, nil, false, errSyntax("expected element name after </")
	}
	return name, prefix, local, spaced, nil
}

// attr tokenises one attribute — name, '=', quoted value — with the
// scanner on the name's first byte and a mark held at or before it. The
// decoded value is appended to val. prefix and local are the split name,
// views of the buffer valid until the next read (they are derived after
// the value, whose decode may slide the buffer). canon reports that the
// attribute's input bytes are already its canonical rendering
// local="value": no prefix, nothing around the '=', double quotes and a
// verbatim value.
func (s *Scanner) attr(val []byte) (prefix, local, out []byte, canon bool, err error) {
	out = val
	nameRel := s.pos - s.mark
	plain := s.plainName()
	if !plain {
		ok, rerr := s.readName()
		switch name := s.buf[s.mark+nameRel : s.pos]; {
		case rerr != nil:
			return nil, nil, out, false, rerr
		case !ok:
			return nil, nil, out, false, errSyntax("expected attribute name in element")
		case !s.checkName(name):
			return nil, nil, out, false, errSyntax("invalid XML name: " + string(name))
		}
	}
	nameEnd := s.pos - s.mark
	s.space()
	spaced := s.pos-s.mark != nameEnd
	b, ok := s.getc()
	if !ok {
		err = s.readErr()
		return
	}
	if b != '=' {
		err = errSyntax("attribute name without = in element")
		return
	}
	eqEnd := s.pos - s.mark
	s.space()
	spaced = spaced || s.pos-s.mark != eqEnd
	qb, ok := s.getc()
	if !ok {
		err = s.readErr()
		return
	}
	if qb != '"' && qb != '\'' {
		err = errSyntax("unquoted or missing attribute value in element")
		return
	}
	chunk, info, ok := s.plainChunk(int(qb))
	if ok {
		out = append(val, chunk...)
	} else if out, info, err = s.text(val, int(qb), false); err != nil {
		return nil, nil, out, false, err
	}
	local = s.buf[s.mark+nameRel : s.mark+nameEnd]
	if !plain {
		if prefix, local, ok = splitName(local); !ok {
			return nil, nil, out, false, errSyntax("expected attribute name in element")
		}
	}
	return prefix, local, out, !spaced && qb == '"' && info.verbatim && len(prefix) == 0, nil
}
