package xpath_test

// The evaluator against the step loop it replaced (oracle_test.go): same
// nodes, same order, same serialised bytes, same error. The file sits
// outside the package because its random inputs come from internal/gen,
// which imports this one.

import (
	"fmt"
	"math"
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/gen"
	"xmlproj/internal/tree"
	"xmlproj/internal/xmark"
	"xmlproj/internal/xpath"
	"xmlproj/internal/xpathmark"
	"xmlproj/internal/xquery"
)

// differ evaluates e both ways and describes the first disagreement, or
// returns "".
func differ(doc *tree.Document, vars map[string]xpath.Value, e xpath.Expr) string {
	ev := xpath.NewEvaluator(doc)
	for k, v := range vars {
		ev.Vars[k] = v
	}
	got, gerr := ev.Eval(e)
	want, werr := xpath.OracleEval(doc, vars, e)
	if gerr != nil || werr != nil {
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			return fmt.Sprintf("error %v, the oracle's %v", gerr, werr)
		}
		return ""
	}
	gns, gok := got.(xpath.NodeSet)
	wns, wok := want.(xpath.NodeSet)
	if gok != wok {
		return fmt.Sprintf("value %T, the oracle's %T", got, want)
	}
	if !gok {
		gf, isNum := got.(float64)
		if wf, _ := want.(float64); isNum && math.IsNaN(gf) && math.IsNaN(wf) {
			return ""
		}
		if got != want {
			return fmt.Sprintf("value %v, the oracle's %v", got, want)
		}
		return ""
	}
	if len(gns) != len(wns) {
		return fmt.Sprintf("%d nodes, the oracle's %d", len(gns), len(wns))
	}
	for i := range gns {
		if gns[i] != wns[i] {
			return fmt.Sprintf("node %d is %s #%d (attribute %d), the oracle's %s #%d (attribute %d)", i,
				gns[i].Name(), gns[i].N.ID, gns[i].AttrIdx, wns[i].Name(), wns[i].N.ID, wns[i].AttrIdx)
		}
	}
	if xquery.SerializeNodes(gns) != xquery.SerializeNodes(wns) {
		return "the same nodes serialise differently"
	}
	return ""
}

// thinned returns a copy of doc with some subtrees cut out and the IDs
// left as they were: ordered but no longer dense, as in a document a
// tree pruner has been over.
func thinned(doc *tree.Document) *tree.Document {
	c := doc.Clone()
	var thin func(n *tree.Node)
	thin = func(n *tree.Node) {
		kept := n.Children[:0]
		for _, k := range n.Children {
			if k.ID%5 == 3 {
				continue
			}
			k.Index = len(kept)
			kept = append(kept, k)
			thin(k)
		}
		n.Children = kept
	}
	thin(c.Root)
	return c
}

// randomDocument draws a document of d that is neither trivial nor so
// large that a query which is cubic by nature — following::x/following::*
// in a predicate of //node() — takes the oracle minutes, or returns nil.
func randomDocument(d *dtd.DTD, seed int64) *tree.Document {
	for depth := 8; depth >= 3; depth-- {
		doc := gen.New(d, seed, gen.Options{MaxDepth: depth}).Document()
		if n := doc.NumNodes(); n >= 6 && n <= 400 {
			return doc
		}
	}
	return nil
}

// differentialRound draws a grammar, two documents of it and a thinned
// copy of one, and queries over every axis, and returns how many
// document × query pairs it compared.
func differentialRound(t *testing.T, seed int64, recursive bool) int {
	t.Helper()
	d := gen.RandomDTD(seed, gen.DTDOptions{Elements: 9, AllowRecursion: recursive, AttrChance: 50})
	qg := gen.NewQueryGen(d, seed*31+7, gen.QueryOptions{MaxSteps: 5, MaxPreds: 2, AllAxes: true})
	var docs []*tree.Document
	for i := int64(0); i < 2; i++ {
		if doc := randomDocument(d, seed*17+i); doc != nil {
			docs = append(docs, doc)
		}
	}
	if len(docs) > 0 {
		docs = append(docs, thinned(docs[0]))
	}
	pairs := 0
	for qi := 0; qi < 12; qi++ {
		q := qg.Query()
		for di, doc := range docs {
			pairs++
			if diff := differ(doc, nil, q); diff != "" {
				t.Fatalf("seed %d (recursive %v), document %d, %s: %s\ngrammar:\n%s\ndocument: %s",
					seed, recursive, di, q, diff, d, doc.XML())
			}
		}
	}
	return pairs
}

func TestEvalDifferential(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		pairs := 0
		for seed := int64(1); seed <= 60; seed++ {
			pairs += differentialRound(t, seed, seed%2 == 0)
		}
		if pairs < 1000 {
			t.Fatalf("compared %d document × query pairs, want at least 1000", pairs)
		}
	})

	site := xmark.NewGenerator(0.003, 1).Document()
	t.Run("xpathmark", func(t *testing.T) {
		// The XMark half of the 43 benchmark queries is XQuery, which the
		// oracle does not speak: their answers are pinned from the old
		// engine in the root package's serialized_test.go.
		for _, q := range xpathmark.Queries {
			if diff := differ(site, nil, xpath.MustParse(q.Source)); diff != "" {
				t.Errorf("%s %s: %s", q.ID, q.Source, diff)
			}
		}
	})

	// What the fast paths must refuse or get right, on a document with a
	// recursive region (a below a, b beside and below both) and on XMark,
	// whose parlist / listitem recursion nests contexts for real.
	nest, err := tree.ParseString(`<r id="r"><a id="a1" k="v"><b><c/><c/></b><a id="a2"><b>x</b><b><c/>y</b><a id="a3"><b><c/><c/></b></a></a><b>z</b></a>` +
		`<a id="a4"><b><c/><c/><c/></b><d><b>w</b></d></a><b id="b9"/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	// A constructed tree: numbered from where the document's IDs end, as
	// the XQuery evaluator numbers one.
	built := tree.NewElement("r",
		tree.NewElement("a", tree.NewElement("b", tree.NewText("1"))),
		tree.NewElement("b", tree.NewText("2")),
		tree.NewElement("c", tree.NewElement("b", tree.NewText("3"))))
	id := tree.NodeID(nest.NumNodes())
	(&tree.Document{Root: built}).Walk(func(n *tree.Node) bool {
		n.ID = id
		id++
		return true
	})
	bs := xpath.NodeSet{}
	nest.Walk(func(n *tree.Node) bool {
		if n.Tag == "b" {
			bs = append(xpath.NodeSet{xpath.ElemRef(n)}, bs...) // reverse document order
		}
		return true
	})
	vars := map[string]xpath.Value{"n": 2.0, "s": "b", "x": xpath.NodeSet{xpath.ElemRef(built)}, "rev": bs}
	table := []string{
		// Positional predicates: per parent, per context, never fused.
		`//a//b[1]`, `//b[last()]`, `//a[2]/descendant::b[position() < 3]`, `//b[$n]`, `//b[$s]`, `//a[b][2]`,
		`//b[position() = last()]`, `//a/descendant::b[2]`, `/descendant::a[2]`, `/descendant-or-self::b[1]`,
		`//b[(1)]`, `//b[-1 + 2]`, `//b[count(c)]`, `//b[zero-or-one(1)]`, `//b[c[1]]`, `//b[c[last()]]`,
		`//a[count(descendant::b[1]) = 1]`, `//a/ancestor-or-self::a[1]`, `//c/ancestor::*[2]`, `//c/preceding::b[1]`,
		`//b/preceding-sibling::*[1]`, `//b/following-sibling::*[last()]`, `//a/b[1]/following::b[1]`,
		// Number-valued but not at the top: may fuse.
		`//b[count(c) = 2]`, `//b[string-length(.) > 0]`, `//a[.//c]`, `//b[not(c)]`, `//a[@id = "a2"]//b`,
		// Nested contexts, downwards and upwards.
		`//a//b`, `//a//a//b`, `//a/descendant-or-self::a`, `//a/descendant-or-self::node()/b`, `//a//text()`, `//a//*`, `//a//node()`,
		`//c/ancestor::*`, `//c/ancestor-or-self::node()`, `//b/ancestor::a`, `//text()/ancestor::b`, `//a/a/b/..`, `//b/parent::a/child::b[2]`,
		`//a/child::a/child::b`, `//c/preceding::b`, `//c/following::b`, `//c/following::node()`, `//b/following-sibling::b`,
		// Attribute nodes as contexts.
		`//@id`, `//@id/..`, `//@*/..`, `//@id/self::node()`, `//@id/ancestor::a`, `//@id/ancestor-or-self::node()`,
		`//@id/descendant-or-self::node()`, `//@id/descendant::b`, `//@id//b`, `//@id/following::b`, `//a/@id/../@k`,
		`(//a | //@id)/ancestor-or-self::node()`, `(//a | //@id)/descendant-or-self::node()`, `(//@k | //a)//b`, `//a/@*[1]`, `//a/@*[last()]`,
		// Unions and sets that do not arrive in document order.
		`//b | //a`, `(//c | //a | //text())/..`, `//b/c | //a/b | //a`, `$rev`, `$rev/c`, `$rev//c`, `$rev/ancestor::a`, `$rev[1]`, `$rev[2]/c`,
		`($rev | //a)/b`, `count($rev//c)`,
		// Constructed nodes.
		`$x//b`, `$x/descendant::b[2]`, `($x | /r/a)//*`, `$x//b/ancestor::*`, `$x//text()`, `$x/descendant-or-self::b`, `count($x/descendant::node())`,
		// Values and errors.
		`count(//a//b)`, `sum(//b)`, `string(//a[3]//b)`, `//b[nosuch()]`, `//b[$unbound]`, `count(//a, //b)`, `//a[count(1)]`, `(1)/b`,
		`//r`, `//node()`, `//*`, `//r/a`, `//*[a]`, `/descendant::r`, `/descendant-or-self::node()/r`, // the root element is no child of what // walks
		`/`, `/r`, `/x`, `/*`, `/node()`, `/text()`, `/self::r`, `/descendant::r`, `/parent::r/b`, `.`, `..`, `.//b`, `b`, `@id`,
	}
	t.Run("table", func(t *testing.T) {
		for _, src := range table {
			if diff := differ(nest, vars, xpath.MustParse(src)); diff != "" {
				t.Errorf("%s: %s", src, diff)
			}
		}
		for _, src := range []string{
			`//parlist//listitem//text()`, `//parlist//parlist//listitem`, `//listitem[1]//keyword`, `//listitem//listitem[last()]`,
			`//keyword/ancestor::*`, `//keyword/ancestor::listitem`, `//keyword/ancestor-or-self::node()/self::text`,
			`//@id/..`, `//bidder[1]`, `//open_auction/bidder[last()]/increase`, `//item//keyword[2]`, `//person[profile/@income > 50000]//text()`,
			`//item/@id/ancestor::regions`, `//bidder/following-sibling::bidder[1]`, `/site//node()[self::keyword]`, `//site`, `//site/regions`,
			`//description//text() | //annotation//keyword`, `//category//*[text()]`,
		} {
			if diff := differ(site, nil, xpath.MustParse(src)); diff != "" {
				t.Errorf("on XMark, %s: %s", src, diff)
			}
		}
	})
}

// FuzzEvalDifferential drives the random round from fuzzer-chosen seeds.
func FuzzEvalDifferential(f *testing.F) {
	f.Add(int64(1), false)
	f.Add(int64(2), true)
	f.Add(int64(977), true)
	f.Fuzz(func(t *testing.T, seed int64, recursive bool) {
		differentialRound(t, seed%(1<<40), recursive)
	})
}
