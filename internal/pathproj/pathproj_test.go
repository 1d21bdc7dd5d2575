package pathproj

import (
	"testing"

	"xmlproj/internal/testkit"
	"xmlproj/internal/tree"
	"xmlproj/internal/xpathl"
	"xmlproj/internal/xquery"
)

const doc = `<site><regions><item><name>gold ring</name><desc><kw>gold</kw></desc></item><item><name>mug</name><desc/></item></regions><people><person><name>Ada</name></person></people></site>`

func mustDoc(t *testing.T, s string) *tree.Document {
	t.Helper()
	d, err := tree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func lowerQuery(t *testing.T, src string) []Path {
	t.Helper()
	ps, err := xpathl.FromQuery(testkit.XPath(src))
	if err != nil {
		t.Fatal(err)
	}
	bps, _ := FromXPathL(ps)
	return bps
}

func TestPruneSimplePath(t *testing.T) {
	d := mustDoc(t, doc)
	out, stats := Prune(d, lowerQuery(t, "/site/regions/item/name"))
	got := out.XML()
	// Non-materialised paths keep result nodes without their subtrees,
	// exactly like a non-materialised type projector.
	want := `<site><regions><item><name/></item><item><name/></item></regions></site>`
	if got != want {
		t.Fatalf("pruned = %s, want %s", got, want)
	}
	// The baseline visits the whole document.
	if total := int64(d.NumNodes()); stats.Visited < total {
		t.Fatalf("baseline visited %d of %d nodes; it must traverse everything", stats.Visited, d.NumNodes())
	}
}

func TestPruneDescendant(t *testing.T) {
	d := mustDoc(t, doc)
	out, _ := Prune(d, lowerQuery(t, "//kw"))
	want := `<site><regions><item><desc><kw/></desc></item></regions></site>`
	if got := out.XML(); got != want {
		t.Fatalf("pruned = %s, want %s", got, want)
	}
}

func TestPruneKeepSubtree(t *testing.T) {
	d := mustDoc(t, doc)
	// Materialised paths end with dos::node() after extraction.
	q, err := xquery.Parse("/site/people/person")
	if err != nil {
		t.Fatal(err)
	}
	bps, _ := FromXPathL(xquery.Extract(q))
	out, _ := Prune(d, bps)
	want := `<site><people><person><name>Ada</name></person></people></site>`
	if got := out.XML(); got != want {
		t.Fatalf("pruned = %s, want %s", got, want)
	}
}

func TestPredicateDegenerates(t *testing.T) {
	// The baseline cannot use predicates: item[kw] keeps item subtrees
	// whole.
	d := mustDoc(t, doc)
	bps, exact := FromXPathL(mustApprox(t, `//item[desc/kw]/name`))
	if exact {
		t.Fatal("predicate lowering must be reported inexact")
	}
	out, _ := Prune(d, bps)
	// Both items fully kept (predicate ignored, subtree kept).
	regions := out.Root().FirstChild()
	if second := regions.FirstChild().NextSibling(); !second.Valid() || second.NextSibling().Valid() {
		t.Fatalf("pruned = %s", out.XML())
	}
	if regions.FirstChild().NextSibling().FirstChild().Tag() != "name" {
		t.Fatalf("item subtree not kept whole: %s", out.XML())
	}
}

func TestBackwardAxisDegenerates(t *testing.T) {
	bps, exact := FromXPathL(mustApprox(t, `//kw/ancestor::item`))
	if exact {
		t.Fatal("backward lowering must be reported inexact")
	}
	d := mustDoc(t, doc)
	out, _ := Prune(d, bps)
	// The ancestor step degrades to keep-subtree at the kw match point —
	// everything on the kw spine survives whole.
	if out.NumNodes() == 0 {
		t.Fatal("root lost")
	}
}

func mustApprox(t *testing.T, src string) []*xpathl.Path {
	t.Helper()
	ps, err := xpathl.FromQuery(testkit.XPath(src))
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestPruneNoMatchEmpties(t *testing.T) {
	d := mustDoc(t, doc)
	out, _ := Prune(d, lowerQuery(t, "/site/nosuch"))
	if out.NumNodes() > 0 {
		t.Fatalf("pruned = %s, want empty", out.XML())
	}
}

func TestDosVariantExpansion(t *testing.T) {
	bps, exact := FromXPathL(mustApprox(t, "//item"))
	if !exact {
		t.Fatal("//item should lower exactly")
	}
	// dos::node()/child::item → self + descendant variants.
	if len(bps) != 2 {
		t.Fatalf("%d baseline paths, want 2 variants", len(bps))
	}
}

// Baseline soundness: query results are preserved on baseline-pruned
// documents too (it is a sound pruner, just less precise and slower).
func TestBaselineSoundOnResults(t *testing.T) {
	d := mustDoc(t, doc)
	for _, src := range []string{
		"/site/regions/item/name", "//kw", "//person/name", "//item[desc/kw]/name",
	} {
		q := testkit.XPath(src)
		orig, err := testkit.Select(d, q)
		if err != nil {
			t.Fatal(err)
		}
		bps, _ := FromXPathL(mustApprox(t, src))
		pruned, _ := Prune(d, bps)
		if pruned.NumNodes() == 0 {
			if len(orig) != 0 {
				t.Fatalf("%s: baseline pruned everything but query matches", src)
			}
			continue
		}
		after, err := testkit.Select(pruned, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != len(orig) {
			t.Fatalf("%s: %d results before, %d after baseline pruning\n%s", src, len(orig), len(after), pruned.XML())
		}
	}
}
