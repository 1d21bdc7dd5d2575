package core

import (
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/gen"
	"xmlproj/internal/tree"
	"xmlproj/internal/validate"
	"xmlproj/internal/xpath"
	"xmlproj/internal/xpathl"
)

// TestTypeSoundnessProperty checks Thm. 4.4's soundness statement
// empirically: for random DTDs, documents and queries, the names (under
// ℑ) of every node the query selects are contained in the type inferred
// for the query's XPathℓ approximation. (The approximation only weakens
// conditions and widens axes, so original-query results are a subset of
// the approximation's, whose names τ over-approximates.)
func TestTypeSoundnessProperty(t *testing.T) {
	rounds := int64(15)
	if testing.Short() {
		rounds = 3
	}
	for seed := int64(0); seed < rounds; seed++ {
		d := gen.RandomDTD(seed, gen.DTDOptions{Elements: 8, AllowRecursion: seed%3 == 0})
		checker := NewChecker(d)
		qg := gen.NewQueryGen(d, seed*13+1, gen.QueryOptions{MaxSteps: 4, MaxPreds: 2, AllAxes: true})
		instance := gen.New(d, seed, gen.Options{MaxDepth: 6}).Document()
		if err := validate.Document(d, instance); err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < 30; qi++ {
			q := qg.Query()
			paths, err := xpathl.FromQuery(q)
			if err != nil {
				t.Fatalf("seed %d: %q: %v", seed, q, err)
			}
			tau := d.Symbols().NameSet(checker.Type(paths[0]))
			res, err := xpath.NewEvaluator(instance).Eval(q)
			if err != nil {
				t.Fatalf("seed %d: %q: %v", seed, q, err)
			}
			for _, r := range res.(xpath.NodeSet) {
				name := nameOf(d, r.N)
				if r.IsAttr() {
					name = dtd.AttrName(name, r.Name())
				}
				if !tau.Has(name) {
					t.Fatalf("seed %d: %q selected %s ∉ τ = %s\ngrammar:\n%s\ndoc: %s",
						seed, q, name, tau, d, instance.XML())
				}
			}
		}
	}
}

// nameOf is ℑ (Def. 2.4) spelled as a name, for a node of a d-valid
// document: the name its tag defines, or its parent's text name.
func nameOf(d *dtd.DTD, n *tree.Node) dtd.Name {
	if n.Kind == tree.Text {
		pn, _ := d.ElementName(n.Parent.Tag)
		return dtd.TextName(pn)
	}
	nm, _ := d.ElementName(n.Tag)
	return nm
}
