package scan

// The boundary differential for the byte-class kernel: every byte value
// at every offset of a short chunk or name, read by the kernel with
// today's slow path behind it and by the pre-kernel code (oracle_test.go),
// from resident input and through a one-byte reader, which makes every
// byte a buffer edge. The two must agree on everything a caller can see;
// whole documents are held to encoding/xml's verdict besides.

import (
	"bufio"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"testing"

	"xmlproj/internal/dtd"
)

// feeds are the two ways a scanner gets its input.
var feeds = []struct {
	name string
	open func(src string) *Scanner
}{
	{"resident", func(src string) *Scanner {
		s := new(Scanner)
		s.ResetBytes([]byte(src))
		return s
	}},
	{"one-byte reader", func(src string) *Scanner {
		// A buffer shorter than the chunk: it slides and grows under it.
		return &Scanner{r: iotest(strings.NewReader(src)), buf: make([]byte, 8), mark: -1}
	}},
}

// rest drains what s has not consumed: its position, in a form that does
// not depend on where the sliding buffer stands.
func rest(s *Scanner) string {
	var b []byte
	for {
		b = append(b, s.buf[s.pos:s.end]...)
		s.pos = s.end
		if !s.fill() {
			return string(b)
		}
	}
}

// outcome renders everything one read of a chunk or a name produced.
func outcome(s *Scanner, err error, parts ...any) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	for _, p := range parts {
		if b, ok := p.([]byte); ok {
			fmt.Fprintf(&sb, "%q ", b)
		} else {
			fmt.Fprintf(&sb, "%+v ", p)
		}
	}
	return fmt.Sprintf("%srest %q", sb.String(), rest(s))
}

// readChunk reads character data the way the walker, the pruner and the
// skip scan do: plainChunk, and text for what it refuses.
func readChunk(s *Scanner, quote int, cdata bool) string {
	if !cdata {
		if chunk, info, ok := s.plainChunk(quote); ok {
			return outcome(s, nil, chunk, info)
		}
	}
	out, info, err := s.text(nil, quote, cdata)
	return outcome(s, err, out, info)
}

// xmlAccepts is encoding/xml's verdict on a document, with the three
// document-level rules Walk adds: one root element, no text outside it,
// nothing left open.
func xmlAccepts(doc string) bool {
	dec := xml.NewDecoder(strings.NewReader(doc))
	roots, depth := 0, 0
	for {
		at := dec.InputOffset()
		tok, err := dec.Token()
		if err == io.EOF {
			return roots == 1 && depth == 0
		}
		if err != nil {
			return false
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if depth == 0 {
				roots++
			}
			depth++
		case xml.EndElement:
			depth--
		case xml.CharData:
			// Outside the root only whitespace, after a byte-order mark
			// opening the document.
			s := string(t)
			if at == 0 {
				s = strings.TrimPrefix(s, "\ufeff")
			}
			if depth == 0 && strings.TrimSpace(s) != "" {
				return false
			}
		}
	}
}

// events records a walk as text.
type events struct{ strings.Builder }

func (e *events) StartElement(name []byte, attrs []Attr) {
	fmt.Fprintf(e, "<%s", name)
	for _, a := range attrs {
		fmt.Fprintf(e, " %s=%q", a.Name, a.Value)
	}
	e.WriteString(">")
}
func (e *events) Text(data []byte) { fmt.Fprintf(e, "%q", data) }
func (e *events) EndElement()      { e.WriteString("</>") }

func walkEvents(doc string) (string, error) {
	var e events
	err := Walk([]byte(doc), &e)
	return e.String(), err
}

// TestKernelBoundaryText puts each byte value at each offset of a 10-byte
// chunk, in element content, in both kinds of attribute value and in a
// CDATA body.
func TestKernelBoundaryText(t *testing.T) {
	contexts := []struct {
		name       string
		quote      int
		cdata      bool
		after      string // what follows the chunk where the scanner reads it
		head, tail string // the document around the chunk
	}{
		{"content", -1, false, "<x", "<a>", "</a>"},
		{`"-quoted value`, '"', false, `" y`, `<a x="`, `"/>`},
		{"'-quoted value", '\'', false, "' y", "<a x='", "'/>"},
		{"CDATA", -1, true, "]]>z", "<a><![CDATA[", "]]></a>"},
	}
	for _, c := range contexts {
		for b := 0; b < 256; b++ {
			for off := 0; off < 10; off++ {
				chunk := []byte("abcdefghij")
				chunk[off] = byte(b)
				for _, feed := range feeds {
					src := string(chunk) + c.after
					so, sk, st := feed.open(src), feed.open(src), feed.open(src)
					out, info, err := so.textOracle(nil, c.quote, c.cdata)
					want := outcome(so, err, out, info)
					if got := readChunk(sk, c.quote, c.cdata); got != want {
						t.Fatalf("%s, byte %#02x at offset %d, %s:\nkernel %s\noracle %s", c.name, b, off, feed.name, got, want)
					}
					out, info, err = st.text(nil, c.quote, c.cdata)
					if got := outcome(st, err, out, info); got != want {
						t.Fatalf("%s, byte %#02x at offset %d, %s:\ntext   %s\noracle %s", c.name, b, off, feed.name, got, want)
					}
				}
				doc := c.head + string(chunk) + c.tail
				if _, err := walkEvents(doc); (err == nil) != xmlAccepts(doc) {
					t.Fatalf("%q: Walk says %v, encoding/xml accepts = %v", doc, err, err != nil)
				}
			}
		}
	}
}

// TestKernelBoundaryNames puts each byte value at each offset of a
// 4-byte name, and walks the colon cases.
func TestKernelBoundaryNames(t *testing.T) {
	names := []string{"a:b", "a:b:c", "a::b", ":a", "a:", ":", "::", "ab:cd", "a.b-c_d9", "é", "aé", "a:é"}
	for b := 0; b < 256; b++ {
		for off := 0; off < 4; off++ {
			name := []byte("abcd")
			name[off] = byte(b)
			names = append(names, string(name))
		}
	}
	for _, name := range names {
		for _, after := range []string{">", " x", "/>", "=", ""} {
			for _, feed := range feeds {
				so, sk := feed.open(name+after), feed.open(name+after)
				so.setMark()
				sk.setMark()
				n, p, l, err := so.qnameOracle("element name after <")
				want := outcome(so, err, n, p, l)
				n, p, l, err = sk.qname("element name after <")
				if got := outcome(sk, err, n, p, l); got != want {
					t.Fatalf("name %q before %q, %s:\nkernel %s\noracle %s", name, after, feed.name, got, want)
				}
			}
		}
		for _, doc := range []string{"<" + name + "/>", "<" + name + "></" + name + ">", "<a " + name + `="v"/>`} {
			if _, err := walkEvents(doc); (err == nil) != xmlAccepts(doc) && !strings.Contains(doc, "xmlns") {
				t.Fatalf("%q: Walk says %v, encoding/xml accepts = %v", doc, err, err != nil)
			}
		}
	}
}

// TestKernelEndTags: an end tag accepted by comparison with the open name
// and one tokenised the long way give the same events, output and
// verdicts, from resident input and with every byte a buffer edge.
func TestKernelEndTags(t *testing.T) {
	d, p := setup(t, fullPi)
	for _, c := range []struct {
		doc  string
		want string // pruned under fullPi; "" when malformed
	}{
		{`<bib></bib>`, `<bib/>`},
		{`<bib></bib >`, `<bib/>`},
		{"<bib></bib\n>", `<bib/>`},
		{`<bib><book isbn="1"><title>t</title ><author>a</author></book></bib>`, `<bib><book isbn="1"><title>t</title><author>a</author></book></bib>`},
		{`<bib></bibx>`, ``},
		{`<bib></bi>`, ``},
		{`<bib></bi b>`, ``},
		{`<bib></bib x>`, ``},
		{`<bib></bib`, ``},
		{`<bib></`, ``},
		{`<bib></bib>x</bib>`, ``},
		{`<bib><book isbn="1"></bib></book>`, ``},
		{`<p:bib xmlns:p="u"></p:bib>`, `<bib/>`},
		{`<p:bib xmlns:p="u"></bib>`, ``},
		{`<bib></p:bib>`, ``},
	} {
		if !strings.Contains(c.doc, "xmlns") && xmlAccepts(c.doc) != (c.want != "") {
			t.Fatalf("%q: encoding/xml accepts = %v", c.doc, c.want == "")
		}
		if _, err := walkEvents(c.doc); (err == nil) != (c.want != "") {
			t.Errorf("%q: Walk says %v", c.doc, err)
		}
		for _, validate := range []bool{false, true} {
			opts := Options{Validate: validate}
			for name, run := range map[string]func(bw *bufio.Writer) error{
				"resident": func(bw *bufio.Writer) error {
					_, err := Prune(Source{Data: []byte(c.doc)}, Sink{W: bw}, d, p, opts)
					return err
				},
				"one-byte reader": func(bw *bufio.Writer) error {
					_, err := Prune(Source{R: iotest(strings.NewReader(c.doc))}, Sink{W: bw}, d, p, opts)
					return err
				},
			} {
				var sb strings.Builder
				bw := bufio.NewWriter(&sb)
				err := run(bw)
				bw.Flush()
				switch {
				case c.want == "" && err == nil:
					t.Errorf("%q, %s, validate=%v: accepted", c.doc, name, validate)
				case c.want != "" && (err != nil || sb.String() != c.want):
					t.Errorf("%q, %s, validate=%v: %q, %v; want %q", c.doc, name, validate, sb.String(), err, c.want)
				}
			}
		}
	}
}

// TestTextRunsJoin: a chunk that follows a comment inside one run, and a
// run that starts as a view of the input and goes on decoded, arrive as
// one Text event with the joined bytes — and leave the pruner as one
// text node.
func TestTextRunsJoin(t *testing.T) {
	d, p := setup(t, fullPi)
	for _, c := range []struct{ text, want string }{
		{`a<!--c-->b`, `ab`},
		{`a<![CDATA[<]]>`, `a<`},
		{`a<!--c--> <!--d-->b`, `ab`},
		{`a&amp;b`, `a&b`},
		{`a<!--c-->b&lt;<![CDATA[c]]>d`, `ab<cd`},
		{` <!--c-->a`, `a`},
		{`a>b<!--c-->c`, `a>bc`},
	} {
		got, err := walkEvents("<a>" + c.text + "</a>")
		if want := fmt.Sprintf("<a>%q</>", c.want); err != nil || got != want {
			t.Errorf("walk of %q: %s, %v; want %s", c.text, got, err, want)
		}
		doc := `<bib><book isbn="1"><title>` + c.text + `</title><author>x</author></book></bib>`
		out, st, err := prune(t, doc, d, p, Options{Validate: true})
		var e events
		if err == nil {
			err = Walk([]byte(out), &e)
		}
		if want := fmt.Sprintf(`<bib><book isbn="1"><title>%q</><author>"x"</></></>`, c.want); err != nil || e.String() != want || st.TextOut != 2 {
			t.Errorf("prune of %q: %q walks as %s, TextOut %d, %v; want %s and 2", c.text, out, e.String(), st.TextOut, err, want)
		}
	}
}

// TestNameCacheBounded: a pooled scanner outlives its documents, so the
// memo of non-ASCII name checks must not grow with the names it has seen
// — and emptying it must not change a verdict.
func TestNameCacheBounded(t *testing.T) {
	d, p := setup(t, dtd.NewNameSet("bib"))
	pr := newPruner(NewScanner(nil)) // as the pool hands it out, again and again
	discard := bufio.NewWriter(io.Discard)
	for round := 0; round < 2; round++ {
		for i := 0; i < 5000; i++ {
			name := fmt.Sprintf("é%d", i)
			if i%7 == 0 {
				name = fmt.Sprintf("e×%d", i) // U+00D7 is no name character
			}
			pr.s.Reset(strings.NewReader(`<bib><book isbn="1"><` + name + `/></book></bib>`))
			pr.prep(d, p, Options{Validate: true})
			pr.use(Sink{W: discard})
			err := pr.run()
			pr.release()
			if want := new(Scanner).checkName([]byte(name)); (err == nil) != want {
				t.Fatalf("round %d, name %q: pruned with %v, a fresh scanner says valid = %v", round, name, err, want)
			}
			if n := len(pr.s.nameCache); n > maxNameCache {
				t.Fatalf("after %d names the cache holds %d, want at most %d", i+1, n, maxNameCache)
			}
		}
	}
}
