package xmlproj

import (
	"strings"
	"testing"
)

const apiDTD = `
<!ELEMENT bib (book*)>
<!ELEMENT book (title, author+, year?)>
<!ATTLIST book isbn CDATA #REQUIRED>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT year (#PCDATA)>
`

const apiDoc = `<bib>
<book isbn="1"><title>Commedia</title><author>Dante</author><year>1313</year></book>
<book isbn="2"><title>Decameron</title><author>Boccaccio</author></book>
</bib>`

func apiSetup(t *testing.T) (*DTD, *Document) {
	t.Helper()
	d, err := ParseDTDString(apiDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := ParseXMLString(apiDoc)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(strings.NewReader(apiDoc)); err != nil {
		t.Fatal(err)
	}
	return d, doc
}

// loadPruned is p's projection of src, pruned as it loads.
func loadPruned(t *testing.T, p *Projector, src string) *Document {
	t.Helper()
	doc, _, err := p.LoadProjected(strings.NewReader(src), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestEndToEndXPath(t *testing.T) {
	d, doc := apiSetup(t)
	q, err := CompileXPath(`//book[author = "Dante"]/title`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Infer(Materialized, q)
	if err != nil {
		t.Fatal(err)
	}
	pruned := loadPruned(t, p, apiDoc)
	if pruned.Size() >= doc.Size() {
		t.Fatalf("pruning did not shrink: %d vs %d", pruned.Size(), doc.Size())
	}
	r1, err := q.Evaluate(doc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := q.Evaluate(pruned)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Serialized != r2.Serialized || r1.Count != 1 {
		t.Fatalf("results differ: %q vs %q", r1.Serialized, r2.Serialized)
	}
	if !strings.Contains(r1.Serialized, "Commedia") {
		t.Fatalf("result = %q", r1.Serialized)
	}
}

func TestEndToEndXQuery(t *testing.T) {
	d, doc := apiSetup(t)
	q, err := Compile(`for $b in /bib/book where $b/year return <t>{ $b/title/text() }</t>`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Kind != XQueryQuery {
		t.Fatalf("compiled as kind %d, want XQuery", q.Kind)
	}
	p, err := d.Infer(NodesOnly, q)
	if err != nil {
		t.Fatal(err)
	}
	pruned := loadPruned(t, p, apiDoc)
	r1, _ := q.Evaluate(doc)
	r2, err := q.Evaluate(pruned)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Serialized != r2.Serialized {
		t.Fatalf("results differ:\n%q\n%q", r1.Serialized, r2.Serialized)
	}
	if r1.Serialized != "<t>Commedia</t>" {
		t.Fatalf("result = %q", r1.Serialized)
	}
}

func TestCompileAutoDetect(t *testing.T) {
	if q, err := Compile("//book/title"); err != nil || q.Kind != XPathQuery {
		t.Fatalf("xpath autodetect: %v %v", q, err)
	}
	if q, err := Compile("for $b in /bib/book return $b/title"); err != nil || q.Kind != XQueryQuery {
		t.Fatalf("xquery autodetect: %v %v", q, err)
	}
	if _, err := Compile("for $ in in"); err == nil {
		t.Fatal("junk accepted")
	}
}

func TestCompileErrorNotShadowed(t *testing.T) {
	// A broken path expression must surface the XPath diagnostic, not the
	// XQuery fallback's "trailing input" (which shadowed it).
	_, err := Compile(`//item[@id="x"]/name(`)
	if err == nil {
		t.Fatal("broken path accepted")
	}
	if !strings.Contains(err.Error(), "xpath") {
		t.Fatalf("XPath diagnostic shadowed: %v", err)
	}
	if strings.Contains(err.Error(), "xquery: trailing input") {
		t.Fatalf("XQuery fallback error leaked for a path expression: %v", err)
	}

	// A query that is neither must report both diagnostics.
	_, err = Compile("for $ in in")
	if err == nil {
		t.Fatal("junk accepted")
	}
	if !strings.Contains(err.Error(), "neither XPath") || !strings.Contains(err.Error(), "XQuery") {
		t.Fatalf("combined error missing a diagnostic: %v", err)
	}
}

// TestCompileErrorNamesEveryAxis: a broken path that opens with any of
// XPath's twelve axes gets the XPath diagnostic alone, as `//a[` does.
func TestCompileErrorNamesEveryAxis(t *testing.T) {
	for _, axis := range []string{
		"child", "descendant", "parent", "ancestor", "self", "descendant-or-self",
		"ancestor-or-self", "following-sibling", "preceding-sibling", "following",
		"preceding", "attribute",
	} {
		src := axis + "::a["
		_, want := CompileXPath(src)
		if want == nil {
			t.Fatalf("%s: broken path accepted", src)
		}
		if _, err := Compile(src); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: got %v, want the XPath diagnostic %v", src, err, want)
		}
	}
}

func TestPruneStream(t *testing.T) {
	d, _ := apiSetup(t)
	q, _ := CompileXPath("//book/year")
	p, err := d.Infer(Materialized, q)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	stats, err := p.PruneStream(&out, strings.NewReader(apiDoc))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "<year>1313</year>") {
		t.Fatalf("output = %s", out.String())
	}
	if strings.Contains(out.String(), "Dante") {
		t.Fatalf("authors not pruned: %s", out.String())
	}
	if stats.ElementsOut >= stats.ElementsIn {
		t.Fatalf("stats = %+v", stats)
	}
	// Fused validation accepts the valid document…
	out.Reset()
	if _, err := p.PruneStreamOpts(&out, strings.NewReader(apiDoc), StreamOptions{Validate: true}); err != nil {
		t.Fatal(err)
	}
	// …and rejects an invalid one.
	if _, err := p.PruneStreamOpts(&out, strings.NewReader(`<bib><book/></bib>`), StreamOptions{Validate: true}); err == nil {
		t.Fatal("invalid doc accepted by validating prune")
	}
}

func TestInferBunchOfQueries(t *testing.T) {
	d, _ := apiSetup(t)
	q1, _ := CompileXPath("//book/title")
	q2, _ := CompileXPath("//book/year")
	p, err := d.Infer(NodesOnly, q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Has("title") || !p.Has("year") {
		t.Fatalf("bunch projector misses names: %s", p)
	}
	if p.Has("author") {
		t.Fatalf("bunch projector over-keeps: %s", p)
	}
	if _, err := d.Infer(NodesOnly); err == nil {
		t.Fatal("empty bunch must error")
	}
}

func TestProjectorIntrospection(t *testing.T) {
	d, _ := apiSetup(t)
	q, _ := CompileXPath("//book/title")
	p, _ := d.Infer(NodesOnly, q)
	names := p.Names()
	if len(names) == 0 || names[0] != "bib" {
		t.Fatalf("Names = %v", names)
	}
	if r := p.KeepRatio(); r <= 0 || r >= 1 {
		t.Fatalf("KeepRatio = %v", r)
	}
	if p.String() == "" {
		t.Fatal("String empty")
	}
}

func TestDTDIntrospection(t *testing.T) {
	d, _ := apiSetup(t)
	if d.Root() != "bib" {
		t.Fatalf("Root = %s", d.Root())
	}
	if d.IsRecursive() || !d.IsStarGuarded() || !d.IsParentUnambiguous() {
		t.Fatal("bib DTD properties wrong")
	}
	if !strings.Contains(d.Grammar(), "book -> book[") {
		t.Fatalf("Grammar = %s", d.Grammar())
	}
}

func TestQueryIntrospection(t *testing.T) {
	q, _ := CompileXPath(`//book[year]/title`)
	if q.Source() == "" {
		t.Fatal("Source empty")
	}
	needs := q.DataNeeds()
	if !strings.Contains(needs, "child::title") || !strings.Contains(needs, "child::year") {
		t.Fatalf("DataNeeds = %s", needs)
	}
}

func TestParseErrorsSurface(t *testing.T) {
	if _, err := ParseDTDString("<!junk", ""); err == nil {
		t.Fatal("bad DTD accepted")
	}
	if _, err := ParseXMLString("<a>"); err == nil {
		t.Fatal("bad XML accepted")
	}
	if _, err := CompileXPath("a["); err == nil {
		t.Fatal("bad XPath accepted")
	}
	if _, err := Compile("for $x"); err == nil {
		t.Fatal("bad XQuery accepted")
	}
	if _, err := ParseDTDFile("/nonexistent.dtd", ""); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := ParseSchemaFile("/nonexistent.xsd", ""); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	d, _ := apiSetup(t)
	if err := d.Validate(strings.NewReader(`<bib><book isbn="1"><author>x</author></book></bib>`)); err == nil {
		t.Fatal("invalid doc accepted")
	}
}

// TestCarriageReturnSurvivesThePrune: a carriage return decoded from a
// reference is written back as one by the pruner and by the serialiser of
// a projected load, so the query answers the same on the pruned document
// as on the original (Thm. 4.5). Written raw, it read back as a line feed
// and the two arms of xqrun disagreed.
func TestCarriageReturnSurvivesThePrune(t *testing.T) {
	d, err := ParseDTDString(`<!ELEMENT a (b*, c?)> <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)>`, "a")
	if err != nil {
		t.Fatal(err)
	}
	const src = `<a><b>p&#13;q</b><c>drop</c></a>`
	q, err := Compile("for $b in /a/b return string-length(substring-before($b, \"\n\"))")
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Infer(Materialized, q)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := ParseXMLString(src)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := p.PruneStream(&out, strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "drop") {
		t.Fatalf("the prune kept <c>: %s", out.String())
	}
	streamed, err := ParseXMLString(out.String())
	if err != nil {
		t.Fatal(err)
	}
	loaded, _, err := p.LoadProjected(strings.NewReader(src), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := ParseXMLString(loaded.XML())
	if err != nil {
		t.Fatal(err)
	}
	want, err := q.Evaluate(direct)
	if err != nil {
		t.Fatal(err)
	}
	if want.Serialized != "0" {
		t.Fatalf("on the original: %q, want 0", want.Serialized)
	}
	for arm, doc := range map[string]*Document{"streamed": streamed, "projected, serialised and reloaded": reloaded} {
		got, err := q.Evaluate(doc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Serialized != want.Serialized {
			t.Errorf("%s: %q, on the original %q", arm, got.Serialized, want.Serialized)
		}
	}
}
