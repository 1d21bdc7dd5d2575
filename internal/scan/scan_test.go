package scan

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/xmark"
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
	st, err := Prune(bw, strings.NewReader(src), d, p, opts)
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
// TextSkipped contract (root of the skipped subtree is not "skipped").
func TestSkipScanStats(t *testing.T) {
	pi := dtd.NewNameSet("bib", "book", "title", "title#text", "book@isbn")
	d, p := setup(t, pi)
	doc := `<bib><book isbn="1"><title>T</title><author>Deep<!-- c -->Name</author><year>1999</year></book></bib>`
	out, st, err := prune(t, doc, d, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := `<bib><book isbn="1"><title>T</title></book></bib>`
	if out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
	if st.ElementsIn != 5 || st.ElementsOut != 3 || st.ElementsSkipped != 0 {
		t.Fatalf("element stats: %+v", st)
	}
	// author's run merges across the comment into one logical text node;
	// year's text is another. Both are inside skipped subtrees.
	if st.TextIn != 3 || st.TextOut != 1 || st.TextSkipped != 2 {
		t.Fatalf("text stats: %+v", st)
	}
}

// TestSkipScanNested: skipped subtrees may contain elements undeclared
// in the DTD (no symbol lookups happen inside them), but their syntax is
// still checked.
func TestSkipScanNested(t *testing.T) {
	pi := dtd.NewNameSet("bib", "book", "book@isbn")
	d, p := setup(t, pi)
	doc := `<bib><book isbn="1"><title>T<undeclared attr="v">x</undeclared></title><author>A</author></book></bib>`
	out, st, err := prune(t, doc, d, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out != `<bib><book isbn="1"/></bib>` {
		t.Fatalf("got %q", out)
	}
	if st.ElementsSkipped != 1 || st.ElementsIn != 5 {
		t.Fatalf("stats: %+v", st)
	}
	if _, _, err := prune(t, `<bib><book isbn="1"><title><bad</title><author>A</author></book></bib>`, d, p, Options{}); err == nil {
		t.Fatal("syntax error inside skipped subtree not detected")
	}
	if _, _, err := prune(t, `<bib><book isbn="1"><title><a>x</b></title><author>A</author></book></bib>`, d, p, Options{}); err == nil {
		t.Fatal("mismatched end tag inside skipped subtree not detected")
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
	pr.useStream(bw)
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
type oneByteReader struct{ r *strings.Reader }

func (o oneByteReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

func iotest(r *strings.Reader) oneByteReader { return oneByteReader{r} }

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
	pr.useStream(bw)
	err := pr.run()
	if err != io.ErrNoProgress {
		t.Fatalf("want io.ErrNoProgress, got %v", err)
	}
}

// TestSoloPruneAllocs: with a pooled pruner and a compiled projection, a
// single-projector prune of in-memory input allocates nothing — into a
// gather list or through a reused bufio.Writer, at any selectivity,
// validated or not. (README Performance advertises it.)
func TestSoloPruneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	d := xmark.DTD()
	var doc bytes.Buffer
	if err := xmark.NewGenerator(0.002, 42).Document().WriteXML(&doc); err != nil {
		t.Fatal(err)
	}
	full := dtd.NewNameSet()
	for _, n := range d.Names() {
		full.Add(n)
	}
	pis := map[string]dtd.NameSet{
		"low": dtd.NewNameSet("site", "regions", "africa", "item", "item@id", "location", "location#text"),
		"mid": dtd.NewNameSet("site", "people", "person", "person@id", "name", "name#text",
			"emailaddress", "emailaddress#text", "open_auctions", "open_auction", "open_auction@id",
			"initial", "initial#text"),
		"full": full,
	}
	sl := new(SpanList)
	bw := bufio.NewWriterSize(io.Discard, 64<<10)
	for name, pi := range pis {
		p := d.CompileProjection(pi)
		for _, validate := range []bool{false, true} {
			opts := Options{Validate: validate}
			gather := testing.AllocsPerRun(10, func() {
				if _, err := PruneGather(sl, doc.Bytes(), d, p, opts); err != nil {
					t.Fatal(err)
				}
			})
			stream := testing.AllocsPerRun(10, func() {
				if _, err := PruneBytes(bw, doc.Bytes(), d, p, opts); err != nil {
					t.Fatal(err)
				}
			})
			if gather != 0 || stream != 0 {
				t.Errorf("%s validate=%v: PruneGather %v allocs/op, PruneBytes %v allocs/op, want 0", name, validate, gather, stream)
			}
		}
	}
}
