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
	if err := d.Validate(doc); err != nil {
		t.Fatal(err)
	}
	return d, doc
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
	pruned := p.Prune(doc)
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
	q, err := CompileXQuery(`for $b in /bib/book where $b/year return <t>{ $b/title/text() }</t>`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Infer(NodesOnly, q)
	if err != nil {
		t.Fatal(err)
	}
	pruned := p.Prune(doc)
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
	if _, err := CompileXQuery("for $x"); err == nil {
		t.Fatal("bad XQuery accepted")
	}
	if _, err := ParseDTDFile("/nonexistent.dtd", ""); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := ParseXMLFile("/nonexistent.xml"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	d, _ := apiSetup(t)
	doc, _ := ParseXMLString(`<bib><book isbn="1"><author>x</author></book></bib>`)
	if err := d.Validate(doc); err == nil {
		t.Fatal("invalid doc accepted")
	}
}
