package prune

import (
	"strings"
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/testkit"
	"xmlproj/internal/tree"
	"xmlproj/internal/validate"
)

const bibDTD = `
<!ELEMENT bib (book*)>
<!ELEMENT book (title, author+, year?)>
<!ATTLIST book isbn CDATA #REQUIRED lang (en|fr|it) "en">
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT year (#PCDATA)>
`

const bibDoc = `<bib><book isbn="1" lang="it"><title>Commedia</title><author>Dante</author><year>1313</year></book><book isbn="2"><title>Decameron</title><author>Boccaccio</author></book></bib>`

func setup(t *testing.T) (*dtd.DTD, *tree.Document) {
	t.Helper()
	d, err := dtd.ParseString(bibDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := tree.ParseString(bibDoc)
	if err != nil {
		t.Fatal(err)
	}
	if err := validate.Document(d, doc); err != nil {
		t.Fatal(err)
	}
	return d, doc
}

func TestTreePruneKeepsSelected(t *testing.T) {
	d, doc := setup(t)
	pi := dtd.NewNameSet("bib", "book", "title", dtd.TextName("title"))
	out := testkit.Prune(doc, d.CompileProjection(pi))
	if got := out.XML(); got != `<bib><book><title>Commedia</title></book><book><title>Decameron</title></book></bib>` {
		t.Fatalf("pruned = %s", got)
	}
}

func TestTreePruneIsProjection(t *testing.T) {
	d, doc := setup(t)
	pi := dtd.NewNameSet("bib", "book", "author", dtd.TextName("author"))
	out := testkit.Prune(doc, d.CompileProjection(pi))
	if !testkit.IsProjectionOf(out.Root(), doc.Root()) {
		t.Fatal("pruned tree is not a ≤-projection of the original (Lemma 2.8)")
	}
}

func TestTreePruneAttributes(t *testing.T) {
	d, doc := setup(t)
	pi := dtd.NewNameSet("bib", "book", dtd.AttrName("book", "isbn"))
	out := testkit.Prune(doc, d.CompileProjection(pi))
	book := out.Root().FirstChild()
	if v, ok := book.Attr("isbn"); !ok || v != "1" {
		t.Fatalf("isbn lost: %s", out.XML())
	}
	if _, ok := book.Attr("lang"); ok {
		t.Fatal("lang should be pruned")
	}
}

func TestTreePruneRootDropped(t *testing.T) {
	d, doc := setup(t)
	out := testkit.Prune(doc, d.CompileProjection(dtd.NewNameSet("book")))
	if out.NumNodes() > 0 {
		t.Fatal("dropping the root name must yield the empty document")
	}
}

func TestTreePrunePreservesIDs(t *testing.T) {
	d, doc := setup(t)
	pi := dtd.NewNameSet("bib", "book", "year", dtd.TextName("year"))
	out := testkit.Prune(doc, d.CompileProjection(pi))
	yearID := func(d *tree.Document) (id tree.NodeID) {
		for i := range int32(d.NumNodes()) {
			if n := d.At(i); n.Tag() == "year" {
				id = n.ID()
			}
		}
		return id
	}
	origYear, prunedYear := yearID(doc), yearID(out)
	if origYear == 0 || origYear != prunedYear {
		t.Fatalf("IDs not preserved: %d vs %d", origYear, prunedYear)
	}
}

func TestStreamMatchesTree(t *testing.T) {
	d, doc := setup(t)
	pis := []dtd.NameSet{
		dtd.NewNameSet("bib", "book", "title", dtd.TextName("title"), dtd.AttrName("book", "isbn")),
		dtd.NewNameSet("bib", "book", "author", "year", dtd.TextName("author")),
		dtd.NewNameSet("bib"),
		nameSetOf(d.Symbols(), d.ReachableFromRoot()),
	}
	for _, pi := range pis {
		want := testkit.Prune(doc, d.CompileProjection(pi)).XML()
		got, _, err := StreamString(bibDoc, d, pi, StreamOptions{})
		if err != nil {
			t.Fatalf("Stream(%s): %v", pi, err)
		}
		if got != want {
			t.Errorf("stream/tree mismatch for %s:\nstream: %s\ntree:   %s", pi, got, want)
		}
	}
}

func TestStreamStats(t *testing.T) {
	d, _ := setup(t)
	pi := dtd.NewNameSet("bib", "book", "title", dtd.TextName("title"))
	for _, validate := range []bool{false, true} {
		_, stats, err := StreamString(bibDoc, d, pi, StreamOptions{Validate: validate})
		if err != nil {
			t.Fatal(err)
		}
		if stats.ElementsIn != 8 { // every start tag in the input, skipped subtrees included
			t.Errorf("ElementsIn = %d", stats.ElementsIn)
		}
		if stats.ElementsOut != 5 { // bib, 2 books, 2 titles
			t.Errorf("ElementsOut = %d", stats.ElementsOut)
		}
		// 2 titles, and the 3 texts inside the pruned author / year
		// subtrees, which only a validating prune reads.
		wantIn, wantSkipped := int64(2), int64(0)
		if validate {
			wantIn, wantSkipped = 5, 3
		}
		if stats.TextIn != wantIn {
			t.Errorf("validate=%v: TextIn = %d", validate, stats.TextIn)
		}
		if stats.ElementsSkipped != 0 || stats.TextSkipped != wantSkipped {
			t.Errorf("validate=%v: skipped counts = %d elements, %d texts", validate, stats.ElementsSkipped, stats.TextSkipped)
		}
		if stats.TextOut != 2 || stats.BytesOut == 0 || stats.MaxDepth != 3 {
			t.Errorf("stats = %+v", stats)
		}
	}
}

// TestStreamCoalescesCharData: character data split by the decoder at
// CDATA and entity boundaries is one logical text node — it must be
// counted once, validated once, and survive a validating round trip.
func TestStreamCoalescesCharData(t *testing.T) {
	d, err := dtd.ParseString(`<!ELEMENT a (#PCDATA)>`, "a")
	if err != nil {
		t.Fatal(err)
	}
	pi := dtd.NewNameSet("a", dtd.TextName("a"))
	out, stats, err := StreamString(`<a>foo<![CDATA[ & bar ]]>baz</a>`, d, pi, StreamOptions{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TextIn != 1 || stats.TextOut != 1 {
		t.Errorf("TextIn = %d, TextOut = %d; want 1, 1 (one logical text node)", stats.TextIn, stats.TextOut)
	}
	if want := `<a>foo &amp; bar baz</a>`; out != want {
		t.Errorf("output = %s, want %s", out, want)
	}
	// A comment does not break the run either (the tree parser merges
	// text across comments).
	out, stats, err = StreamString(`<a>foo<!--c-->bar</a>`, d, pi, StreamOptions{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TextIn != 1 || out != `<a>foobar</a>` {
		t.Errorf("TextIn = %d, output = %s", stats.TextIn, out)
	}
}

// TestStreamCountsSkippedSubtrees: descendants of a discarded subtree are
// scanned past by the pruner and must show up in ElementsIn — and, when
// the prune validates and so reads their text, in TextIn.
func TestStreamCountsSkippedSubtrees(t *testing.T) {
	d, err := dtd.ParseString(`
<!ELEMENT r (keep?, drop?)>
<!ELEMENT keep (#PCDATA)>
<!ELEMENT drop (leaf, leaf)>
<!ELEMENT leaf (#PCDATA)>
`, "r")
	if err != nil {
		t.Fatal(err)
	}
	pi := dtd.NewNameSet("r", "keep", dtd.TextName("keep"))
	doc := `<r><keep>k</keep><drop><leaf>a<![CDATA[b]]></leaf><leaf> </leaf></drop></r>`
	for _, validate := range []bool{false, true} {
		out, stats, err := StreamString(doc, d, pi, StreamOptions{Validate: validate})
		if err != nil {
			t.Fatal(err)
		}
		if out != `<r><keep>k</keep></r>` {
			t.Errorf("output = %s", out)
		}
		if stats.ElementsIn != 5 { // r, keep, drop, leaf, leaf
			t.Errorf("ElementsIn = %d, want 5", stats.ElementsIn)
		}
		if stats.ElementsSkipped != 2 { // the two leaves under drop
			t.Errorf("ElementsSkipped = %d, want 2", stats.ElementsSkipped)
		}
		// "k", and under Validate the coalesced "ab"; whitespace-only leaf
		// text is not a text node.
		wantIn, wantSkipped := int64(1), int64(0)
		if validate {
			wantIn, wantSkipped = 2, 1
		}
		if stats.TextIn != wantIn || stats.TextSkipped != wantSkipped {
			t.Errorf("validate=%v: TextIn = %d, TextSkipped = %d", validate, stats.TextIn, stats.TextSkipped)
		}
	}
}

func TestStreamValidates(t *testing.T) {
	d, _ := setup(t)
	pi := nameSetOf(d.Symbols(), d.ReachableFromRoot())
	cases := []struct {
		name, doc string
	}{
		{"wrong root", `<book isbn="1"><title>t</title><author>a</author></book>`},
		{"bad order", `<bib><book isbn="1"><author>a</author><title>t</title></book></bib>`},
		{"incomplete", `<bib><book isbn="1"><title>t</title></book></bib>`},
		{"missing attr", `<bib><book><title>t</title><author>a</author></book></bib>`},
		{"bad enum", `<bib><book isbn="1" lang="xx"><title>t</title><author>a</author></book></bib>`},
		{"stray text", `<bib>zzz</bib>`},
		{"undeclared attr", `<bib><book isbn="1" z="1"><title>t</title><author>a</author></book></bib>`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, _, err := StreamString(c.doc, d, pi, StreamOptions{Validate: true}); err == nil {
				t.Fatal("invalid document accepted while validating")
			}
			// Without validation the same document streams through (pruning
			// is independent of deep validity).
			if _, _, err := StreamString(c.doc, d, pi, StreamOptions{}); err != nil && !strings.Contains(err.Error(), "not declared") {
				t.Fatalf("non-validating stream failed unexpectedly: %v", err)
			}
		})
	}
	// And the valid document passes with validation on.
	if _, _, err := StreamString(bibDoc, d, pi, StreamOptions{Validate: true}); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
}

func TestStreamSkipsPrunedSubtreeValidation(t *testing.T) {
	// Content errors inside a pruned-away subtree are not reported: the
	// pruner skips the subtree without tokenising it deeply.
	d, _ := setup(t)
	pi := dtd.NewNameSet("bib") // drop all books
	doc := `<bib><book isbn="1"><title>t</title><bogus-free-text/></book></bib>`
	if _, _, err := StreamString(doc, d, pi, StreamOptions{Validate: true}); err == nil {
		// The skipped subtree contains an undeclared element, but the
		// pruner never looks at it.
		return
	}
	t.Skip("decoder surfaced the skipped subtree; acceptable but unexpected")
}

func TestStreamUndeclaredElement(t *testing.T) {
	d, _ := setup(t)
	pi := nameSetOf(d.Symbols(), d.ReachableFromRoot())
	if _, _, err := StreamString(`<bib><zine/></bib>`, d, pi, StreamOptions{}); err == nil {
		t.Fatal("undeclared element must fail (names drive pruning)")
	}
}

func TestStreamEscaping(t *testing.T) {
	d, err := dtd.ParseString(`<!ELEMENT a (#PCDATA)><!ATTLIST a v CDATA #IMPLIED>`, "a")
	if err != nil {
		t.Fatal(err)
	}
	pi := dtd.NewNameSet("a", dtd.TextName("a"), dtd.AttrName("a", "v"))
	in := `<a v="x&amp;&quot;y">1 &lt; 2 &amp; 3</a>`
	out, _, err := StreamString(in, d, pi, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	re, err := tree.ParseString(out)
	if err != nil {
		t.Fatalf("pruned output does not re-parse: %v\n%s", err, out)
	}
	if got := re.Root().FirstChild().Data(); got != "1 < 2 & 3" {
		t.Fatalf("text mangled: %q", got)
	}
	if v, _ := re.Root().Attr("v"); v != `x&"y` {
		t.Fatalf("attr mangled: %q", v)
	}
}

func TestStreamMalformed(t *testing.T) {
	d, _ := setup(t)
	pi := nameSetOf(d.Symbols(), d.ReachableFromRoot())
	for _, doc := range []string{`<bib>`, `<bib></bok>`, ``} {
		if _, _, err := StreamString(doc, d, pi, StreamOptions{}); err == nil {
			t.Errorf("malformed %q accepted", doc)
		}
	}
}

// nameSetOf renders a row as a name set, the form Stream's pi takes.
func nameSetOf(s *dtd.Symbols, r dtd.Row) dtd.NameSet {
	pi := dtd.NewNameSet()
	for _, n := range s.SortedNames(r) {
		pi.Add(dtd.Name(n))
	}
	return pi
}

// StreamString is Stream over strings.
func StreamString(src string, d *dtd.DTD, pi dtd.NameSet, opts StreamOptions) (string, Stats, error) {
	var sb strings.Builder
	stats, err := Stream(&sb, strings.NewReader(src), d, pi, opts)
	return sb.String(), stats, err
}

// TestGatherErrorReportsNoBytes: a StreamGather that fails hands back no
// list, so it reports no bytes out, and so does each failing
// StreamMultiGather slot; the writer route still reports what reached
// the writer. The undeclared <bok> fails after "<bib>" is kept.
func TestGatherErrorReportsNoBytes(t *testing.T) {
	d := mustDTD(t)
	doc := strings.Replace(bibDoc, "<book", "<bok", 1)
	pi := dtd.NewNameSet("bib", "book", "title", dtd.TextName("title"))
	sl, st, err := StreamGather([]byte(doc), d, pi, StreamOptions{})
	if err == nil || sl != nil || st.BytesOut != 0 {
		t.Fatalf("StreamGather: list %v, BytesOut %d, err %v; want no list, 0 bytes and an error", sl, st.BytesOut, err)
	}
	gs, sts, errs := StreamMultiGather([]byte(doc), d, []dtd.NameSet{pi, dtd.NewNameSet("bib")}, MultiOptions{})
	for j := range gs {
		if errs[j] == nil || gs[j] != nil || sts[j].BytesOut != 0 {
			t.Fatalf("StreamMultiGather slot %d: list %v, BytesOut %d, err %v", j, gs[j], sts[j].BytesOut, errs[j])
		}
	}
	var sb strings.Builder
	st, err = Stream(&sb, strings.NewReader(doc), d, pi, StreamOptions{})
	if err == nil || st.BytesOut != int64(sb.Len()) {
		t.Fatalf("Stream: wrote %q, BytesOut %d, err %v; want the length written and an error", sb.String(), st.BytesOut, err)
	}
}
