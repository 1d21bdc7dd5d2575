package prune

// Property-based checks of Thm. 4.5 (soundness of projector inference):
// for random valid documents t and queries Q, evaluating Q on t and on
// t∖π — with π inferred from Q's XPathℓ approximation — yields the same
// node-set. With materialised projectors, the string-values of the
// results agree too.

import (
	"fmt"
	"testing"

	"xmlproj/internal/core"
	"xmlproj/internal/dtd"
	"xmlproj/internal/gen"
	"xmlproj/internal/testkit"
	"xmlproj/internal/tree"
	"xmlproj/internal/validate"
	"xmlproj/internal/xpath"
	"xmlproj/internal/xpathl"
)

// resultKey identifies a query result node independently of pruning:
// node ID plus attribute name (attribute indexes may shift when sibling
// attributes are pruned).
func resultKey(r xpath.NodeRef) string {
	if r.IsAttr() {
		return fmt.Sprintf("%d@%s", r.N().ID(), r.Name())
	}
	return fmt.Sprintf("%d", r.N().ID())
}

func resultSet(ns xpath.NodeSet) map[string]bool {
	out := make(map[string]bool, len(ns))
	for _, r := range ns {
		out[resultKey(r)] = true
	}
	return out
}

// checkSound evaluates q on doc and on its pruned version and fails if
// the result node-sets differ.
func checkSound(t *testing.T, d *dtd.DTD, doc *tree.Document, qsrc string, materialized bool) {
	t.Helper()
	q, err := xpath.Parse(qsrc)
	if err != nil {
		t.Fatalf("parse %q: %v", qsrc, err)
	}
	paths, err := xpathl.FromQuery(q)
	if err != nil {
		t.Fatalf("approximate %q: %v", qsrc, err)
	}
	var pr *core.Projector
	if materialized {
		pr, err = core.InferMaterialized(d, paths)
	} else {
		pr, err = core.Infer(d, paths)
	}
	if err != nil {
		t.Fatalf("infer %q: %v", qsrc, err)
	}
	pruned := testkit.Prune(doc, pr.Compiled())
	if pruned.NumNodes() > 0 && !testkit.IsProjectionOf(pruned.Root(), doc.Root()) {
		t.Fatalf("%q: pruned doc is not a projection", qsrc)
	}

	origRes, err1 := xpath.NewEvaluator(doc).Eval(q)
	if err1 != nil {
		t.Fatalf("%q on original: %v", qsrc, err1)
	}
	if pruned.NumNodes() == 0 {
		if ns, ok := origRes.(xpath.NodeSet); ok && len(ns) > 0 {
			t.Fatalf("%q: projector pruned the whole document but the query selects %d nodes (π=%s)", qsrc, len(ns), pr)
		}
		return
	}
	prunedRes, err2 := xpath.NewEvaluator(pruned).Eval(q)
	if err2 != nil {
		t.Fatalf("%q on pruned: %v", qsrc, err2)
	}
	ons, ok1 := origRes.(xpath.NodeSet)
	pns, ok2 := prunedRes.(xpath.NodeSet)
	if !ok1 || !ok2 {
		t.Fatalf("%q: non-node-set result", qsrc)
	}
	os, ps := resultSet(ons), resultSet(pns)
	if len(os) != len(ps) {
		t.Fatalf("%q: |orig| = %d, |pruned| = %d\nπ = %s\ndoc = %s\npruned = %s",
			qsrc, len(os), len(ps), pr, doc.XML(), pruned.XML())
	}
	for k := range os {
		if !ps[k] {
			t.Fatalf("%q: node %s lost after pruning\nπ = %s\ndoc = %s", qsrc, k, pr, doc.XML())
		}
	}
	if materialized {
		// With a materialised projector, result subtrees must be intact.
		om := map[string]string{}
		for _, r := range ons {
			om[resultKey(r)] = r.StringValue()
		}
		for _, r := range pns {
			if want := om[resultKey(r)]; r.StringValue() != want {
				t.Fatalf("%q: string-value of %s changed: %q vs %q\nπ = %s",
					qsrc, resultKey(r), r.StringValue(), want, pr)
			}
		}
	}
}

const soundnessDTD = `
<!ELEMENT site (regions, people)>
<!ELEMENT regions (item*)>
<!ELEMENT item (name, payment?, description)>
<!ATTLIST item id CDATA #REQUIRED featured CDATA #IMPLIED>
<!ELEMENT name (#PCDATA)>
<!ELEMENT payment (#PCDATA)>
<!ELEMENT description (text | parlist)>
<!ELEMENT text (#PCDATA | bold | keyword)*>
<!ELEMENT bold (#PCDATA)>
<!ELEMENT keyword (#PCDATA)>
<!ELEMENT parlist (listitem+)>
<!ELEMENT listitem (text)>
<!ELEMENT people (person*)>
<!ELEMENT person (name, watches?)>
<!ATTLIST person id CDATA #REQUIRED>
<!ELEMENT watches (watch*)>
<!ELEMENT watch EMPTY>
<!ATTLIST watch open_auction CDATA #REQUIRED>
`

var soundnessQueries = []string{
	"/site/regions/item/name",
	"//name",
	"//keyword",
	"/site//item[payment]/name",
	"//item/description//keyword",
	"descendant::text/child::text()",
	"//person[watches]/name",
	"//watch/@open_auction",
	"//item[@featured]/name",
	`//item[name = "Dante"]/payment`,
	"//listitem/ancestor::item/name",
	"//keyword/parent::node()",
	"//keyword/ancestor::description",
	"//item[not(payment)]/name",
	"//item[count(payment) > 0]/name",
	"//person[name or watches]/@id",
	"//item[2]/name",
	"//text[position() = last()]",
	"//item[description/text]/name",
	`//item[contains(name, "alpha")]/@id`,
	"//name/following-sibling::payment",
	"//payment/preceding-sibling::name",
	"//name/following::keyword",
	"//keyword/preceding::name",
	"/site/regions/item/description/parlist/listitem//keyword",
	"//watches/watch",
	"self::site/child::people",
	"//person/name | //item/name",
	"//parlist/listitem/text/bold",
	`//text[bold = "Dante"]/keyword`,
	// A call of no argument reads the context node's string-value.
	"//description[string()]",
	"//description[string-length() > 3]",
	"//description[normalize-space()]",
}

func TestSoundnessFixedQueries(t *testing.T) {
	d, err := dtd.ParseString(soundnessDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 8; seed++ {
		g := gen.New(d, seed, gen.Options{MaxDepth: 7, MaxRepeat: 3})
		doc := g.Document()
		if err := validate.Document(d, doc); err != nil {
			t.Fatalf("generator produced invalid doc (seed %d): %v", seed, err)
		}
		for _, q := range soundnessQueries {
			checkSound(t, d, doc, q, false)
		}
	}
}

func TestSoundnessMaterialized(t *testing.T) {
	d, err := dtd.ParseString(soundnessDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"//item", "//description", "//person", "//item[payment]",
		"/site/regions/item/description", "//text", "//item/@id",
	}
	for seed := int64(0); seed < 6; seed++ {
		doc := gen.New(d, seed, gen.Options{}).Document()
		for _, q := range queries {
			checkSound(t, d, doc, q, true)
		}
	}
}

func TestSoundnessRandomQueries(t *testing.T) {
	d, err := dtd.ParseString(soundnessDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	qg := gen.NewQueryGen(d, 42, gen.QueryOptions{MaxSteps: 4, MaxPreds: 2, AllAxes: true})
	nDocs := 6
	nQueries := 120
	if testing.Short() {
		nDocs, nQueries = 2, 30
	}
	docs := make([]*tree.Document, nDocs)
	for i := range docs {
		docs[i] = gen.New(d, int64(100+i), gen.Options{MaxDepth: 6}).Document()
	}
	for i := 0; i < nQueries; i++ {
		q := qg.Query()
		src := q.String()
		if _, err := xpath.Parse(src); err != nil {
			t.Fatalf("generated query %q does not re-parse: %v", src, err)
		}
		for _, doc := range docs {
			checkSound(t, d, doc, src, false)
		}
	}
}

// TestSoundnessRecursiveDTD checks soundness (which must hold even where
// completeness fails) on the paper's recursive, non-*-guarded DTD.
func TestSoundnessRecursiveDTD(t *testing.T) {
	d, err := dtd.ParseString(`
<!ELEMENT c (a | b)>
<!ELEMENT a (a*, t)>
<!ELEMENT t (#PCDATA)>
<!ELEMENT b (#PCDATA)>
`, "c")
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"self::c[a]/child::b",
		"self::c/child::a/parent::node()",
		"//a/t",
		"descendant::a[a]/t",
		"//t/ancestor::a",
		"//a[not(a)]/t/child::text()",
	}
	for seed := int64(0); seed < 10; seed++ {
		doc := gen.New(d, seed, gen.Options{MaxDepth: 5}).Document()
		if err := validate.Document(d, doc); err != nil {
			t.Fatalf("invalid generated doc: %v", err)
		}
		for _, q := range queries {
			checkSound(t, d, doc, q, false)
		}
	}
}
