package core

import (
	"fmt"
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/gen"
	"xmlproj/internal/testkit"
	"xmlproj/internal/tree"
	"xmlproj/internal/xpath"
	"xmlproj/internal/xpathl"
)

// TestCompleteness exercises Thm. 4.7: on a *-guarded, non-recursive,
// parent-unambiguous DTD and strongly-specified queries, the inferred
// projector is minimal — removing any name Y (together with
// A_E({Y}, descendant), as the theorem prescribes) changes the query's
// result on some witness document.
func TestCompleteness(t *testing.T) {
	d, err := dtd.ParseString(`
<!ELEMENT store (dept*, audit?)>
<!ELEMENT dept (name, item*)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT item (label, price?)>
<!ELEMENT label (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT audit (entry*)>
<!ELEMENT entry (#PCDATA)>
`, "store")
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsStarGuarded() || d.IsRecursive() || !d.IsParentUnambiguous() {
		t.Fatal("DTD must be in the completeness class")
	}

	queries := []string{
		"child::dept/child::item/child::label",
		"descendant::price",
		"child::dept[child::item]/child::name",
		"descendant::item/parent::dept/child::name",
		"child::audit/child::entry",
	}

	// A pool of random instances to hunt witnesses in.
	docs := make([]*tree.Document, 40)
	for i := range docs {
		docs[i] = gen.New(d, int64(i), gen.Options{MaxDepth: 6, MaxRepeat: 3}).Document()
	}

	results := func(q xpath.Expr, doc *tree.Document) string {
		v, err := xpath.NewEvaluator(doc).Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		ns := v.(xpath.NodeSet)
		out := ""
		for _, r := range ns {
			out += fmt.Sprintf("%d,", r.N().ID())
		}
		return out
	}

	for _, src := range queries {
		q := testkit.XPath(src)
		paths, err := xpathl.FromQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := Infer(d, paths)
		if err != nil {
			t.Fatal(err)
		}
		names := namesOf(d.Symbols(), pr.Row)
		for y := range names {
			if y == d.Root {
				continue // removing the root empties every document
			}
			cut := newNameSet(y)
			if sym, ok := d.Symbols().Sym(y); ok {
				cut.AddAll(namesOf(d.Symbols(), d.Symbols().Descendants.Row(sym)))
			}
			smaller := nameSet{}
			for n := range names {
				if !cut.Has(n) {
					smaller.Add(n)
				}
			}
			witness := false
			for _, doc := range docs {
				full := results(q, doc)
				prunedDoc := testkit.Prune(doc, d.CompileProjection(dtd.NameSet(smaller)))
				if prunedDoc.NumNodes() == 0 {
					if full != "" {
						witness = true
						break
					}
					continue
				}
				if results(q, prunedDoc) != full {
					witness = true
					break
				}
			}
			if !witness {
				t.Errorf("%s: removing %s (and descendants) from π = %s changes no result on %d instances — projector not minimal",
					src, y, pr, len(docs))
			}
		}
	}
}

// TestCompletenessFailsOutsideClass documents why the theorem's
// preconditions matter: on the paper's non-*-guarded recursive DTD the
// projector for self::c[a]/child::b keeps names (a, t) that no instance
// ever needs — soundly, but incompletely.
func TestCompletenessFailsOutsideClass(t *testing.T) {
	d, err := dtd.ParseString(`
<!ELEMENT c (a | b)>
<!ELEMENT a (a*, t)>
<!ELEMENT t (#PCDATA)>
<!ELEMENT b (#PCDATA)>
`, "c")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := xpathl.FromQuery(testkit.XPath("self::c[a]/child::b"))
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Infer(d, paths)
	if err != nil {
		t.Fatal(err)
	}
	// The query is empty on every instance (a and b are alternatives),
	// yet the projector keeps the condition's names — the incompleteness
	// the paper attributes to the unguarded union c → (a | b).
	if !pr.Has("a") {
		t.Skipf("projector unexpectedly precise (%s); the incompleteness example no longer applies", pr)
	}
	for _, doc := range []int64{0, 1, 2, 3} {
		instance := gen.New(d, doc, gen.Options{MaxDepth: 4}).Document()
		v, err := xpath.NewEvaluator(instance).Eval(testkit.XPath("self::c[a]/child::b"))
		if err != nil {
			t.Fatal(err)
		}
		if len(v.(xpath.NodeSet)) != 0 {
			t.Fatalf("query should be empty on every instance")
		}
	}
}
