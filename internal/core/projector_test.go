package core

import (
	"sync"
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/xpath"
	"xmlproj/internal/xpathl"
)

func inferFor(t *testing.T, d *dtd.DTD, src string) *Projector {
	t.Helper()
	paths, err := xpathl.FromQuery(xpath.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Infer(d, paths)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func bibDTD(t *testing.T) *dtd.DTD {
	t.Helper()
	d, err := dtd.ParseString(`
<!ELEMENT bib (book*)>
<!ELEMENT book (title, author+, year?)>
<!ATTLIST book isbn CDATA #REQUIRED>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT year (#PCDATA)>
`, "")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestProjectorSimpleChild(t *testing.T) {
	d := bibDTD(t)
	pr := inferFor(t, d, "child::book/child::title")
	for _, want := range []dtd.Name{"bib", "book", "title"} {
		if !pr.Has(want) {
			t.Fatalf("π misses %s: %s", want, pr)
		}
	}
	for _, unwanted := range []dtd.Name{"author", "year", dtd.TextName("title")} {
		if pr.Has(unwanted) {
			t.Fatalf("π keeps useless %s: %s", unwanted, pr)
		}
	}
}

func TestProjectorDescendantSelective(t *testing.T) {
	d := bibDTD(t)
	// descendant::year keeps only the spine bib/book/year.
	pr := inferFor(t, d, "descendant::year")
	for _, want := range []dtd.Name{"bib", "book", "year"} {
		if !pr.Has(want) {
			t.Fatalf("π misses %s: %s", want, pr)
		}
	}
	if pr.Has("title") || pr.Has("author") {
		t.Fatalf("π keeps siblings not needed: %s", pr)
	}
}

func TestProjectorUpwardAxis(t *testing.T) {
	d := bibDTD(t)
	pr := inferFor(t, d, "descendant::author/parent::node()/child::title")
	for _, want := range []dtd.Name{"bib", "book", "author", "title"} {
		if !pr.Has(want) {
			t.Fatalf("π misses %s: %s", want, pr)
		}
	}
	if pr.Has("year") {
		t.Fatalf("π keeps year: %s", pr)
	}
}

// The paper's running example Q (§3): the projector must keep exactly the
// names needed to navigate down to author text and back up to title.
func TestProjectorPaperQuery(t *testing.T) {
	d := bibDTD(t)
	q := `/descendant::author/child::text()[self::node() = "Dante"]/ancestor::book/child::title`
	pr := inferFor(t, d, q)
	for _, want := range []dtd.Name{"bib", "book", "author", dtd.TextName("author"), "title"} {
		if !pr.Has(want) {
			t.Fatalf("π misses %s: %s", want, pr)
		}
	}
	if pr.Has("year") || pr.Has(dtd.TextName("title")) {
		t.Fatalf("π imprecise: %s", pr)
	}
}

func TestProjectorEmptyQueryPrunesHard(t *testing.T) {
	d := bibDTD(t)
	// A query that can never match keeps only the root.
	pr := inferFor(t, d, "child::title")
	if pr.Names.Len() != 1 || !pr.Has("bib") {
		t.Fatalf("π for empty query = %s, want {bib}", pr)
	}
}

func TestProjectorCondition(t *testing.T) {
	d := bibDTD(t)
	pr := inferFor(t, d, "child::book[child::year]/child::title")
	for _, want := range []dtd.Name{"bib", "book", "year", "title"} {
		if !pr.Has(want) {
			t.Fatalf("π misses %s: %s", want, pr)
		}
	}
	if pr.Has("author") {
		t.Fatalf("π keeps author: %s", pr)
	}
	// Value comparisons additionally need the compared text.
	pr = inferFor(t, d, `child::book[child::author = "Dante"]/child::title`)
	if !pr.Has(dtd.TextName("author")) {
		t.Fatalf("π misses the compared text: %s", pr)
	}
}

func TestProjectorAttributeQuery(t *testing.T) {
	d := bibDTD(t)
	pr := inferFor(t, d, "child::book/attribute::isbn")
	if !pr.Has(dtd.AttrName("book", "isbn")) {
		t.Fatalf("π misses @isbn: %s", pr)
	}
	pr = inferFor(t, d, "child::book[attribute::isbn]/child::title")
	if !pr.Has(dtd.AttrName("book", "isbn")) || !pr.Has("title") {
		t.Fatalf("π = %s", pr)
	}
}

// Thm. 4.7's counterexample DTD: {X → a[Y,W], W → c[], Y → b[Z], Z → d[]}.
func thm47DTD(t *testing.T) *dtd.DTD {
	t.Helper()
	d, err := dtd.ParseString(`
<!ELEMENT a (b, c)>
<!ELEMENT c EMPTY>
<!ELEMENT b (d)>
<!ELEMENT d EMPTY>
`, "a")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestProjectorNotStronglySpecifiedKeepsMore(t *testing.T) {
	d := thm47DTD(t)
	// self::a[child::node()] is not strongly specified; the paper notes
	// the inferred projector includes W=c beyond the optimal {X,Y}.
	pr := inferFor(t, d, "self::a[child::node()]")
	if !pr.Has("a") {
		t.Fatalf("π misses a: %s", pr)
	}
	if !pr.Has("b") && !pr.Has("c") {
		t.Fatalf("π should keep the condition's data needs: %s", pr)
	}
}

func TestProjectorStronglySpecifiedOptimal(t *testing.T) {
	d := thm47DTD(t)
	// self::a[child::b] is strongly specified: optimal projector {a, b}.
	pr := inferFor(t, d, "self::a[b]")
	if !pr.Has("a") || !pr.Has("b") {
		t.Fatalf("π misses needed names: %s", pr)
	}
	if pr.Has("c") || pr.Has("d") {
		t.Fatalf("π not optimal: %s", pr)
	}
}

func TestProjectorDescendantOrSelfSplit(t *testing.T) {
	d := bibDTD(t)
	// //title  ≡ descendant-or-self::node()/child::title.
	pr := inferFor(t, d, "//title")
	for _, want := range []dtd.Name{"bib", "book", "title"} {
		if !pr.Has(want) {
			t.Fatalf("π misses %s: %s", want, pr)
		}
	}
	if pr.Has("author") || pr.Has("year") {
		t.Fatalf("π imprecise: %s", pr)
	}
}

func TestMaterializeKeepsSubtree(t *testing.T) {
	d := bibDTD(t)
	paths, err := xpathl.FromQuery(xpath.MustParse("child::book"))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := InferMaterialized(d, paths)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []dtd.Name{
		"bib", "book", "title", "author", "year",
		dtd.TextName("title"), dtd.TextName("author"), dtd.TextName("year"),
		dtd.AttrName("book", "isbn"),
	} {
		if !pr.Has(want) {
			t.Fatalf("materialised π misses %s: %s", want, pr)
		}
	}
	// Materialize is idempotent on already-widened paths.
	m := Materialize(paths[0])
	if got := Materialize(m).String(); got != m.String() {
		t.Fatalf("Materialize not idempotent: %s vs %s", got, m)
	}
}

func TestMaterializeSelectiveStillPrunes(t *testing.T) {
	d := bibDTD(t)
	paths, _ := xpathl.FromQuery(xpath.MustParse("child::book/child::title"))
	pr, err := InferMaterialized(d, paths)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Has(dtd.TextName("title")) {
		t.Fatalf("π misses title text: %s", pr)
	}
	if pr.Has("author") || pr.Has("year") {
		t.Fatalf("materialised π over-keeps: %s", pr)
	}
}

func TestProjectorUnionOfQueries(t *testing.T) {
	d := bibDTD(t)
	p1, _ := xpathl.FromQuery(xpath.MustParse("child::book/child::title"))
	p2, _ := xpathl.FromQuery(xpath.MustParse("child::book/child::year"))
	pr, err := Infer(d, append(p1, p2...))
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Has("title") || !pr.Has("year") {
		t.Fatalf("bunch projector misses names: %s", pr)
	}
	if pr.Has("author") {
		t.Fatalf("bunch projector over-keeps: %s", pr)
	}
}

func TestProjectorRecursiveDTDTerminates(t *testing.T) {
	d, err := dtd.ParseString(`
<!ELEMENT part (name, part*)>
<!ELEMENT name (#PCDATA)>
`, "part")
	if err != nil {
		t.Fatal(err)
	}
	pr := inferFor(t, d, "descendant::part/child::name")
	if !pr.Has("part") || !pr.Has("name") {
		t.Fatalf("π = %s", pr)
	}
	if pr.Has(dtd.TextName("name")) {
		t.Fatalf("π keeps text needlessly: %s", pr)
	}
	// Deeply nested descendants with backward steps still terminate.
	pr = inferFor(t, d, "descendant::name/ancestor::part/child::name")
	if !pr.Has("part") || !pr.Has("name") {
		t.Fatalf("π = %s", pr)
	}
}

func TestProjectorRejectsUnrewrittenAxis(t *testing.T) {
	bad := &xpathl.Path{Steps: []xpathl.Step{{SStep: xpathl.SStep{Axis: xpath.FollowingSibling, Test: xpath.NodeTestNode}}}}
	if _, err := Infer(bibDTD(t), []*xpathl.Path{bad}); err == nil {
		t.Fatal("sibling axis must be rejected (callers rewrite first)")
	}
}

func TestProjectorAncestorClosedChains(t *testing.T) {
	// Every name in π (other than the root) has a parent in π: π is a
	// union of chains from the root (Def. 2.6).
	d := bibDTD(t)
	for _, q := range []string{
		"descendant::year", "//author/parent::node()", "child::book[year]/child::title",
		`/descendant::author/child::text()[self::node() = "Dante"]/ancestor::book/child::title`,
	} {
		pr := inferFor(t, d, q)
		s := d.Symbols()
		for x := pr.row.Next(0); x >= 0; x = pr.row.Next(x + 1) {
			if x == s.Root() {
				continue
			}
			if intersect(s.Parents.Row(x), pr.row).Empty() {
				t.Errorf("%s: name %s has no parent in π = %s", q, s.Name(x), pr)
			}
		}
	}
}

func TestKeepRatio(t *testing.T) {
	d := bibDTD(t)
	all := inferFor(t, d, "descendant-or-self::node()/descendant-or-self::node()")
	if r := all.KeepRatio(); r <= 0 || r > 1 {
		t.Fatalf("KeepRatio = %v", r)
	}
	selective := inferFor(t, d, "child::nosuchelement")
	if r := selective.KeepRatio(); r <= 0 || r > 0.5 {
		t.Fatalf("selective KeepRatio = %v", r)
	}
}

// TestDerivedFormsOnce: π's compiled table and result fingerprints are
// computed on first use, by whichever of 32 concurrent first users gets
// there (run under -race), and cost nothing afterwards.
func TestDerivedFormsOnce(t *testing.T) {
	d := bibDTD(t)
	pr := inferFor(t, d, "//book/title")
	const n = 32
	tables := make([]*dtd.Projection, n)
	fps := make([][2]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i] = pr.Compiled()
			fps[i] = [2]string{pr.ResultFingerprint(false), pr.ResultFingerprint(true)}
		}(i)
	}
	wg.Wait()
	for i := range tables {
		if tables[i] == nil || tables[i] != tables[0] {
			t.Fatal("concurrent first use compiled more than one table")
		}
		if fps[i] != fps[0] {
			t.Fatalf("fingerprints differ between callers: %v vs %v", fps[i], fps[0])
		}
	}
	if fps[0][0] == fps[0][1] || len(fps[0][0]) != 32 {
		t.Fatalf("plain and validating fingerprints: %v", fps[0])
	}
	if allocs := testing.AllocsPerRun(100, func() {
		pr.Compiled()
		pr.ResultFingerprint(false)
		pr.ResultFingerprint(true)
	}); allocs != 0 {
		t.Fatalf("derived forms cost %v allocations after first use, want 0", allocs)
	}

	// The fingerprint is of the grammar and the names, not of the object:
	// an equal π over an equal grammar agrees, another π does not.
	same := &Projector{D: bibDTD(t), Names: pr.Names.Clone()}
	if same.ResultFingerprint(false) != fps[0][0] || same.ResultFingerprint(true) != fps[0][1] {
		t.Fatal("equal projectors over equal grammars fingerprint differently")
	}
	if inferFor(t, d, "//book/year").ResultFingerprint(false) == fps[0][0] {
		t.Fatal("different projectors share a fingerprint")
	}
}
