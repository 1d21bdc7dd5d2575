package scan

import (
	"bufio"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"

	"xmlproj/internal/dtd"
)

const bibDTD = `
<!ELEMENT bib (book*)>
<!ELEMENT book (title, author+, year?)>
<!ATTLIST book isbn CDATA #REQUIRED lang (en|fr|it) "en">
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT year (#PCDATA)>
`

func setup(t *testing.T, pi dtd.NameSet) (*dtd.DTD, *dtd.Projection) {
	t.Helper()
	d, err := dtd.ParseString(bibDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	return d, d.CompileProjection(pi)
}

func prune(t *testing.T, src string, d *dtd.DTD, p *dtd.Projection, opts Options) (string, Stats, error) {
	t.Helper()
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	st, err := Prune(Source{R: strings.NewReader(src)}, Sink{W: bw}, d, p, opts)
	if err == nil {
		err = bw.Flush()
	}
	return sb.String(), st, err
}

var fullPi = dtd.NewNameSet(
	"bib", "book", "title", "title#text", "author", "author#text",
	"year", "year#text", "book@isbn", "book@lang",
)

// TestClosedProjectionIsIdentity: under a π that keeps every name,
// canonical input is emitted unchanged and only the non-canonical
// tokens are re-rendered.
func TestClosedProjectionIsIdentity(t *testing.T) {
	d, p := setup(t, fullPi)
	for _, c := range []struct{ doc, want string }{
		{`<bib><book isbn="1" lang="it"><title>T</title><author>A</author><year>1999</year></book></bib>`, ""},
		{`<bib><book isbn="1"><title>a&amp;b</title><author>A</author></book></bib>`, ""},
		{`<bib><book isbn="1"><title><![CDATA[<x>]]></title><author>A</author></book></bib>`,
			`<bib><book isbn="1"><title>&lt;x&gt;</title><author>A</author></book></bib>`},
		{`<bib><book isbn="1"><title>t</title><!-- c --><author>A</author></book></bib>`,
			`<bib><book isbn="1"><title>t</title><author>A</author></book></bib>`},
		{"<bib>\n <book isbn=\"1\">\n  <title>T</title><author>A</author>\n </book>\n</bib>",
			`<bib><book isbn="1"><title>T</title><author>A</author></book></bib>`},
		{`<bib><book  isbn="1" ><title>T</title><author>A</author></book></bib>`,
			`<bib><book isbn="1"><title>T</title><author>A</author></book></bib>`},
		{`<bib><book isbn='1'><title>T</title><author>A</author></book></bib>`,
			`<bib><book isbn="1"><title>T</title><author>A</author></book></bib>`},
		// <a></a> must collapse to <a/>: the start tag's '>' is withheld.
		{`<bib><book isbn="1"><title></title><author>A</author></book></bib>`,
			`<bib><book isbn="1"><title/><author>A</author></book></bib>`},
	} {
		if c.want == "" {
			c.want = c.doc
		}
		out, _, err := prune(t, c.doc, d, p, Options{})
		if err != nil {
			t.Fatalf("prune failed: %v (input %q)", err, c.doc)
		}
		if out != c.want {
			t.Errorf("got  %q\nwant %q\ninput %q", out, c.want, c.doc)
		}
	}
}

// TestLargeKeptSubtreeStreams: a kept subtree many times the scanner's
// buffer must stream through unchanged.
func TestLargeKeptSubtreeStreams(t *testing.T) {
	d, p := setup(t, fullPi)
	var b strings.Builder
	b.WriteString(`<bib>`)
	for i := 0; i < 2000; i++ {
		b.WriteString(`<book isbn="1" lang="en"><title>title title title title</title><author>somebody</author></book>`)
	}
	b.WriteString(`</bib>`)
	doc := b.String()
	if len(doc) < 2*defaultBufSize {
		t.Fatalf("test document too small to exercise refills: %d bytes", len(doc))
	}
	out, st, err := prune(t, doc, d, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out != doc {
		t.Fatal("identity projection altered the document")
	}
	if st.ElementsIn != 1+2000*3 || st.ElementsOut != st.ElementsIn {
		t.Fatalf("bad stats: %+v", st)
	}
}

// TestSkipScanStats: subtree skipping keeps the ElementsSkipped /
// TextSkipped contract (root of the skipped subtree is not "skipped")
// at both levels: elements are counted either way, text inside a
// discarded subtree only when Validate reads it.
func TestSkipScanStats(t *testing.T) {
	pi := dtd.NewNameSet("bib", "book", "title", "title#text", "book@isbn")
	d, p := setup(t, pi)
	doc := `<bib><book isbn="1"><title>T</title><author>Deep<!-- c -->Name<x/></author><year>1999</year></book></bib>`
	for _, validate := range []bool{false, true} {
		out, st, err := prune(t, doc, d, p, Options{Validate: validate})
		if err != nil {
			t.Fatal(err)
		}
		want := `<bib><book isbn="1"><title>T</title></book></bib>`
		if out != want {
			t.Fatalf("validate=%v: got %q, want %q", validate, out, want)
		}
		if st.ElementsIn != 6 || st.ElementsOut != 3 || st.ElementsSkipped != 1 {
			t.Fatalf("validate=%v: element stats: %+v", validate, st)
		}
		// author's run merges across the comment into one logical text
		// node; year's text is another. Both are inside skipped subtrees.
		wantIn, wantSkipped := int64(1), int64(0)
		if validate {
			wantIn, wantSkipped = 3, 2
		}
		if st.TextIn != wantIn || st.TextOut != 1 || st.TextSkipped != wantSkipped {
			t.Fatalf("validate=%v: text stats: %+v", validate, st)
		}
	}
}

// TestSkipScanNested: skipped subtrees may contain elements undeclared
// in the DTD (no symbol lookups happen inside them). Their structure is
// always checked; their syntax and inner end-tag names with Validate.
func TestSkipScanNested(t *testing.T) {
	pi := dtd.NewNameSet("bib", "book", "book@isbn")
	d, p := setup(t, pi)
	doc := `<bib><book isbn="1"><title>T<undeclared attr="v">x</undeclared></title><author>A</author></book></bib>`
	for _, validate := range []bool{false, true} {
		out, st, err := prune(t, doc, d, p, Options{Validate: validate})
		if err != nil {
			t.Fatal(err)
		}
		if out != `<bib><book isbn="1"/></bib>` {
			t.Fatalf("got %q", out)
		}
		if st.ElementsSkipped != 1 || st.ElementsIn != 5 {
			t.Fatalf("stats: %+v", st)
		}
		if _, _, err := prune(t, `<bib><book isbn="1"><title><bad</title><author>A</author></book></bib>`, d, p, Options{Validate: validate}); err == nil {
			t.Fatalf("validate=%v: '<' inside a tag of a skipped subtree not detected", validate)
		}
		if _, _, err := prune(t, `<bib><book isbn="1"><title><a>x</a></titel><author>A</author></book></bib>`, d, p, Options{Validate: validate}); err == nil {
			t.Fatalf("validate=%v: skipped subtree closed by another name not detected", validate)
		}
		_, _, err = prune(t, `<bib><book isbn="1"><title><a>x</b></title><author>A</author></book></bib>`, d, p, Options{Validate: validate})
		if (err != nil) != validate {
			t.Fatalf("validate=%v: mismatched end tag inside skipped subtree: %v", validate, err)
		}
	}
}

// TestValidateErrors exercises the validating scanner's error paths.
func TestValidateErrors(t *testing.T) {
	d, p := setup(t, fullPi)
	cases := []string{
		`<book isbn="1"><title>T</title><author>A</author></book>`,                      // wrong root
		`<bib><book><title>T</title><author>A</author></book></bib>`,                    // missing required attr
		`<bib><book isbn="1" lang="xx"><title>T</title><author>A</author></book></bib>`, // enum violation
		`<bib><book isbn="1" bogus="1"><title>T</title><author>A</author></book></bib>`, // undeclared attr
		`<bib><book isbn="1"><author>A</author></book></bib>`,                           // content model violation
		`<bib>text</bib>`, // text not allowed
	}
	for _, src := range cases {
		if _, _, err := prune(t, src, d, p, Options{Validate: true}); err == nil {
			t.Errorf("validation accepted %q", src)
		}
	}
}

// TestScannerBufferBoundaries drives tiny reads so tokens straddle
// buffer refills and the mark-relative span recovery is exercised.
func TestScannerBufferBoundaries(t *testing.T) {
	d, p := setup(t, fullPi)
	doc := `<bib><book isbn="12345678901234567890"><title>` +
		strings.Repeat("long text ", 50) + `&amp;</title><author>A</author></book></bib>`
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	s := NewScanner(iotest(strings.NewReader(doc)))
	pr := newPruner(s)
	pr.prep(d, p, Options{})
	pr.use(Sink{W: bw})
	if err := pr.run(); err != nil {
		t.Fatal(err)
	}
	pr.flushRuns()
	bw.Flush()
	want, _, err := prune(t, doc, d, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Fatalf("one-byte reads diverge:\n%q\n%q", sb.String(), want)
	}
}

// iotest returns a reader that yields one byte at a time.
func iotest(r io.Reader) io.Reader { return tortureReader{r, 1} }

// noProgressReader returns (0, nil) forever after its content runs out,
// which io.Reader permits; the scanner must error rather than spin.
type noProgressReader struct{ r *strings.Reader }

func (n noProgressReader) Read(p []byte) (int, error) {
	if n.r.Len() == 0 {
		return 0, nil
	}
	return n.r.Read(p)
}

func TestNoProgressReaderErrors(t *testing.T) {
	d, p := setup(t, fullPi)
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	s := NewScanner(noProgressReader{strings.NewReader(`<bib><book isbn="1">`)})
	pr := newPruner(s)
	pr.prep(d, p, Options{})
	pr.use(Sink{W: bw})
	err := pr.run()
	if err != io.ErrNoProgress {
		t.Fatalf("want io.ErrNoProgress, got %v", err)
	}
}

// tortureReader hands out at most chunk bytes per Read: one byte, so
// every construct straddles a refill, or a buffer and a bit, so the
// refills walk across the constructs.
type tortureReader struct {
	r     io.Reader
	chunk int
}

func (t tortureReader) Read(p []byte) (int, error) {
	if len(p) > t.chunk {
		p = p[:t.chunk]
	}
	return t.r.Read(p)
}

// filler yields n bytes of b without holding them.
type filler struct {
	b byte
	n int
}

func (f *filler) Read(p []byte) (int, error) {
	if f.n == 0 {
		return 0, io.EOF
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	for i := range p {
		p[i] = f.b
	}
	f.n -= len(p)
	return len(p), nil
}

// freshPrune prunes with a pruner of its own, whose scanner starts on
// the default buffer — a pooled one keeps what earlier prunes grew —
// and returns it for inspection.
func freshPrune(w io.Writer, r io.Reader, d *dtd.DTD, p *dtd.Projection, opts Options) (*pruner, error) {
	bw := bufio.NewWriter(w)
	pr := newPruner(NewScanner(r))
	pr.prep(d, p, opts)
	pr.use(Sink{W: bw})
	err := pr.run()
	pr.flushRuns()
	if err == nil {
		err = bw.Flush()
	}
	return pr, err
}

// TestDiscardedTextStreamsThrough: without Validate no mark is held
// across a text gap, a comment, a CDATA section, a PI or a directive in
// a discarded subtree, so one larger than the token cap — a 32 MB text
// node under the default 8 MB included — streams through the scanner's
// first buffer, as it does with Validate: the lax level is never the
// stricter one.
func TestDiscardedTextStreamsThrough(t *testing.T) {
	d, p := setup(t, dtd.NewNameSet("bib", "book", "title", "title#text", "book@isbn"))
	for name, c := range map[string]struct {
		open, close string
		fill        byte
	}{
		"text":      {``, ``, 'x'},
		"comment":   {`<!-- `, `-->`, '>'},
		"cdata":     {`<![CDATA[`, `]]>`, ']'},
		"pi":        {`<?p `, `?>`, '?'},
		"directive": {`<!d "`, `" <e <!-- > --> > >`, '>'},
	} {
		for _, chunk := range []int{1, defaultBufSize + 1} {
			for _, opts := range []Options{{}, {Validate: true}} {
				if opts.Validate && (chunk == 1 || name == "text") {
					continue // minutes of getc; Validate's text run is a token
				}
				// A tag is let go as soon as it is read: the discarded
				// element's own, and with Validate one inside it.
				leads := []string{""}
				if opts.Validate {
					leads = append(leads, "<b/>")
				}
				for _, lead := range leads {
					// The text node is the 32 MB one; for the rest, a little
					// over the default cap, or byte by byte 1 MiB over a
					// 128 KiB cap, says the same in a fraction of the reads.
					n := 32 << 20
					switch {
					case name == "text":
					case chunk == 1:
						n, opts.MaxTokenSize = 1<<20, 2*defaultBufSize
					default:
						n = DefaultMaxTokenSize + 1<<20
					}
					src := io.MultiReader(
						strings.NewReader(`<bib><book isbn="1"><title>T</title><author>`+lead+c.open),
						&filler{b: c.fill, n: n},
						strings.NewReader(c.close+`tail</author></book></bib>`))
					var sb strings.Builder
					pr, err := freshPrune(&sb, tortureReader{src, chunk}, d, p, opts)
					if err != nil || sb.String() != `<bib><book isbn="1"><title>T</title></book></bib>` {
						t.Fatalf("%s, chunk %d, %+v: %q, %v", name, chunk, opts, sb.String(), err)
					}
					if st := pr.st; st.ElementsIn != int64(4+len(lead)/4) || st.ElementsSkipped != int64(len(lead)/4) {
						t.Fatalf("%s, chunk %d, %+v: stats %+v", name, chunk, opts, st)
					}
					if len(pr.s.buf) != defaultBufSize {
						t.Fatalf("%s, chunk %d, %+v: the scanner's buffer grew to %d bytes", name, chunk, opts, len(pr.s.buf))
					}
				}
			}
		}
	}
}

// TestDiscardedTagTooLong: without Validate a tag inside a discarded
// subtree is pinned at its '<' while it is read, so the token cap bounds
// it exactly as it bounds a kept one. With Validate only an attribute's
// name is pinned (longTag, unpinned, compares copies of the names), so a value
// longer than the cap streams through.
func TestDiscardedTagTooLong(t *testing.T) {
	d, p := setup(t, dtd.NewNameSet("bib", "book", "title", "title#text", "book@isbn"))
	long := strings.Repeat("v", 3*defaultBufSize)
	for name, inner := range map[string]string{
		"start tag": `<x a="` + long + `"/>`,
		"end tag":   `<x></x` + strings.Repeat(" ", 3*defaultBufSize) + `>`,
	} {
		doc := `<bib><book isbn="1"><title>T</title><author>` + inner + `</author></book></bib>`
		for _, chunk := range []int{1, defaultBufSize + 1} {
			prune := func(max int, validate bool) error {
				_, err := freshPrune(io.Discard, tortureReader{strings.NewReader(doc), chunk}, d, p, Options{MaxTokenSize: max, Validate: validate})
				return err
			}
			if err := prune(2*defaultBufSize, false); !errors.Is(err, ErrTokenTooLong) {
				t.Errorf("%s, chunk %d: got %v, want ErrTokenTooLong", name, chunk, err)
			}
			for _, validate := range []bool{false, true} {
				if err := prune(0, validate); err != nil {
					t.Errorf("%s, chunk %d, validate=%v: the default cap rejected it: %v", name, chunk, validate, err)
				}
			}
			if name == "start tag" {
				if err := prune(2*defaultBufSize, true); err != nil {
					t.Errorf("%s, chunk %d, validate=true: the value did not stream: %v", name, chunk, err)
				}
			}
		}
	}
}

// TestAttributeErrorOrder: a start tag is decided attribute by attribute
// as it is read, so under Validate a verdict on an earlier attribute
// comes before a syntax error later in the same tag — the projector's own
// error is reported first — and without Validate the syntax error is the
// prune's.
func TestAttributeErrorOrder(t *testing.T) {
	const (
		undeclared = `undeclared attribute "zzz" on book`
		repeated   = `XML syntax error: attribute isbn repeated in element`
		badName    = `XML syntax error: invalid XML name: 1bad`
	)
	pi := dtd.NewNameSet("bib", "book", "book@isbn", "title", "title#text")
	d, p := setup(t, pi)
	for _, c := range []struct {
		tag           string
		validate, lax string // the prune's error with and without Validate
	}{
		{`<book isbn="1" zzz="no" isbn="2">`, undeclared, repeated},
		{"<book isbn=\"1\"\tzzz=\"no\" isbn=\"2\">", undeclared, repeated},
		{`<book zzz='no' isbn="1" 1bad="2">`, undeclared, badName},
	} {
		doc := `<bib>` + c.tag + `<title>T</title><author>A</author></book></bib>`
		for _, validate := range []bool{false, true} {
			want := c.lax
			if validate {
				want = c.validate
			}
			for _, opts := range []Options{{Validate: validate}, {Validate: validate, general: true}} {
				for feed, src := range map[string]func() Source{
					"bytes":           func() Source { return Source{Data: []byte(doc)} },
					"one-byte reader": func() Source { return Source{R: iotest(strings.NewReader(doc))} },
				} {
					_, err := Prune(src(), Sink{W: bufio.NewWriter(io.Discard)}, d, p, opts)
					if err == nil || err.Error() != want {
						t.Errorf("%q, %s, %+v: got %v, want %s", c.tag, feed, opts, err, want)
					}
				}
			}
		}
	}
}

// TestWideTagScratchDropped: once a prune is released, its pruner keeps
// no long-way scratch sized by a wide tag, read pinned (kept) or unpinned
// (inside a discarded subtree, under Validate).
func TestWideTagScratchDropped(t *testing.T) {
	d, p := setup(t, dtd.NewNameSet("bib", "book", "book@isbn", "title", "title#text"))
	var wide strings.Builder
	for i := 0; i < 1000; i++ {
		wide.WriteString(` a` + strconv.Itoa(i) + `=""`)
	}
	for _, doc := range []string{
		`<bib><book isbn="1"` + wide.String() + `><title>T</title><author>A</author></book></bib>`,
		`<bib><book isbn="1"><title>T</title><author><x` + wide.String() + `/></author></book></bib>`,
	} {
		for _, validate := range []bool{false, true} {
			pr, _ := freshPrune(io.Discard, strings.NewReader(doc), d, p, Options{Validate: validate})
			if cap(pr.ltag.seen.at) == 0 && validate {
				t.Fatalf("%.30q: the long way read no names", doc)
			}
			pr.release()
			if n := cap(pr.ltag.seen.at) + cap(pr.ltag.seen.slots) + cap(pr.ltag.attrs) + cap(pr.ltag.names); n != 0 {
				t.Errorf("%.30q, validate=%v: %d scratch entries kept", doc, validate, n)
			}
		}
	}
}

// TestResetBytesRestoresOwnBuffer: after a zero-copy prune the pooled
// scanner must not pin the caller's data.
func TestResetBytesRestoresOwnBuffer(t *testing.T) {
	s := NewScanner(nil)
	own := s.buf
	data := []byte(`<a>text</a>`)
	s.ResetBytes(data)
	if &s.buf[0] != &data[0] {
		t.Fatal("ResetBytes did not alias the input")
	}
	if got := s.Peek(2); string(got) != "<a" {
		t.Fatalf("Peek over aliased data: %q", got)
	}
	s.Reset(strings.NewReader("x"))
	if len(s.buf) != len(own) || cap(s.buf) != cap(own) {
		t.Fatal("Reset did not restore the scanner-owned buffer")
	}
}
