package xpathmark

import (
	"testing"

	"xmlproj/internal/core"
	"xmlproj/internal/testkit"
	"xmlproj/internal/xmark"
	"xmlproj/internal/xpath"
	"xmlproj/internal/xpathl"
)

func TestAllQueriesParse(t *testing.T) {
	if len(Queries) != 23 {
		t.Fatalf("%d queries, want 23", len(Queries))
	}
	for _, q := range Queries {
		if _, err := xpath.Parse(q.Source); err != nil {
			t.Errorf("%s does not parse: %v", q.ID, err)
		}
	}
}

func TestAllAxesCovered(t *testing.T) {
	covered := map[xpath.Axis]bool{}
	var mark func(e xpath.Expr)
	var markPath func(p xpath.Path)
	markPath = func(p xpath.Path) {
		for _, st := range p.Steps {
			covered[st.Axis] = true
			for _, pr := range st.Preds {
				mark(pr)
			}
		}
	}
	mark = func(e xpath.Expr) {
		switch t := e.(type) {
		case xpath.Binary:
			mark(t.L)
			mark(t.R)
		case xpath.Neg:
			mark(t.E)
		case xpath.Call:
			for _, a := range t.Args {
				mark(a)
			}
		case xpath.PathExpr:
			markPath(t.Path)
		}
	}
	for _, q := range Queries {
		mark(testkit.XPath(q.Source))
	}
	for ax := xpath.Child; ax <= xpath.Attribute; ax++ {
		if !covered[ax] {
			t.Errorf("axis %s not exercised by any query", ax)
		}
	}
}

func TestAllQueriesRunAndSound(t *testing.T) {
	d := xmark.DTD()
	doc := xmark.NewGenerator(0.002, 5).Document()
	for _, q := range Queries {
		ast := testkit.XPath(q.Source)
		ev := xpath.NewEvaluator(doc)
		orig, err := ev.Eval(ast)
		if err != nil {
			t.Fatalf("%s fails on original: %v", q.ID, err)
		}
		paths, err := xpathl.FromQuery(ast)
		if err != nil {
			t.Fatalf("%s: approximate: %v", q.ID, err)
		}
		pr, err := core.InferMaterialized(d, paths)
		if err != nil {
			t.Fatalf("%s: infer: %v", q.ID, err)
		}
		pruned := testkit.Prune(doc, pr.Compiled())
		if pruned.NumNodes() == 0 {
			t.Fatalf("%s: projector dropped the root", q.ID)
		}
		after, err := xpath.NewEvaluator(pruned).Eval(ast)
		if err != nil {
			t.Fatalf("%s fails on pruned: %v", q.ID, err)
		}
		ons := orig.(xpath.NodeSet)
		pns := after.(xpath.NodeSet)
		if len(ons) != len(pns) {
			t.Errorf("%s: %d results on original, %d on pruned (π = %s)", q.ID, len(ons), len(pns), pr)
			continue
		}
		for i := range ons {
			if ons[i].N().ID() != pns[i].N().ID() {
				t.Errorf("%s: result %d differs", q.ID, i)
				break
			}
			if ons[i].StringValue() != pns[i].StringValue() {
				t.Errorf("%s: result %d string-value differs (materialised projector)", q.ID, i)
				break
			}
		}
	}
}

func TestSelectivityShape(t *testing.T) {
	// Static shape of Table 1: the sibling/backward queries QP09/QP11
	// prune hard, while QP13 (following::item) keeps nearly everything.
	d := xmark.DTD()
	ratio := func(id string) float64 {
		q := ByID(id)
		paths, err := xpathl.FromQuery(testkit.XPath(q.Source))
		if err != nil {
			t.Fatal(err)
		}
		pr, err := core.Infer(d, paths)
		if err != nil {
			t.Fatal(err)
		}
		return pr.KeepRatio()
	}
	if r09, r13 := ratio("QP09"), ratio("QP13"); r09 >= r13 {
		t.Errorf("QP09 (%.2f) should be more selective than QP13 (%.2f)", r09, r13)
	}
	if r13 := ratio("QP13"); r13 < 0.8 {
		t.Errorf("QP13 keep ratio = %.2f, want nearly everything", r13)
	}
	if r01 := ratio("QP01"); r01 > 0.4 {
		t.Errorf("QP01 keep ratio = %.2f, want a selective projector", r01)
	}
}

func TestByID(t *testing.T) {
	if q := ByID("QP11"); q == nil || q.ID != "QP11" {
		t.Fatal("ByID(QP11)")
	}
	if ByID("QP99") != nil {
		t.Fatal("ByID(QP99) should be nil")
	}
}

// ByID returns the query with the given ID, or nil.
func ByID(id string) *Query {
	for i := range Queries {
		if Queries[i].ID == id {
			return &Queries[i]
		}
	}
	return nil
}
