package xmark

import (
	"testing"

	"xmlproj/internal/core"
	"xmlproj/internal/dtd"
	"xmlproj/internal/prune"
	"xmlproj/internal/validate"
	"xmlproj/internal/xquery"
)

func TestDTDParses(t *testing.T) {
	d := DTD()
	if d.Root != "site" {
		t.Fatalf("root = %s", d.Root)
	}
	if _, ok := d.ElementName("open_auction"); !ok {
		t.Fatal("open_auction not declared")
	}
	// The description subtree is recursive (text/bold/keyword/emph).
	if !d.IsRecursive() {
		t.Fatal("auction DTD should be recursive")
	}
	// text is a real element name here, not the text() node test.
	if n, ok := d.ElementName("text"); !ok || n != "text" {
		t.Fatal("text element missing")
	}
}

func TestGeneratedDocumentIsValid(t *testing.T) {
	d := DTD()
	doc := NewGenerator(0.002, 1).Document()
	if err := validate.Document(d, doc); err != nil {
		t.Fatalf("generated document invalid: %v", err)
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(0.002, 7).Document().XML()
	b := NewGenerator(0.002, 7).Document().XML()
	if a != b {
		t.Fatal("generator not deterministic")
	}
	c := NewGenerator(0.002, 8).Document().XML()
	if a == c {
		t.Fatal("different seeds should give different documents")
	}
}

func TestGeneratorScales(t *testing.T) {
	small := NewGenerator(0.002, 1).Document().SerializedSize()
	large := NewGenerator(0.008, 1).Document().SerializedSize()
	if large < 3*small {
		t.Fatalf("scaling broken: %d vs %d bytes", small, large)
	}
}

func TestDescriptionDominatesSize(t *testing.T) {
	// The §6 skew: description subtrees account for the bulk of the
	// document (the paper reports ~70%).
	d := DTD()
	doc := NewGenerator(0.004, 2).Document()
	total := doc.SerializedSize()
	// Prune away description subtrees and compare sizes.
	pi := d.Symbols().NameSet(d.ReachableFromRoot())
	delete(pi, dtd.Name("description"))
	pruned := prune.Tree(doc, d.CompileProjection(pi))
	rest := pruned.SerializedSize()
	ratio := float64(total-rest) / float64(total)
	if ratio < 0.4 {
		t.Fatalf("descriptions are only %.0f%% of the document; want the dominating share", ratio*100)
	}
}

func TestAllQueriesParse(t *testing.T) {
	if len(Queries) != 20 {
		t.Fatalf("%d queries, want 20", len(Queries))
	}
	for _, q := range Queries {
		if _, err := xquery.Parse(q.Source); err != nil {
			t.Errorf("%s does not parse: %v", q.ID, err)
		}
	}
}

func TestAllQueriesRun(t *testing.T) {
	doc := NewGenerator(0.002, 3).Document()
	for _, q := range Queries {
		ast, err := xquery.Parse(q.Source)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if _, err := xquery.NewEvaluator(doc).Eval(ast); err != nil {
			t.Errorf("%s fails to evaluate: %v", q.ID, err)
		}
	}
}

func TestAllQueriesSoundUnderPruning(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	d := DTD()
	doc := NewGenerator(0.002, 4).Document()
	for _, q := range Queries {
		ast := xquery.MustParse(q.Source)
		paths := xquery.Extract(xquery.RewriteForIf(ast))
		pr, err := core.Infer(d, paths)
		if err != nil {
			t.Fatalf("%s: infer: %v", q.ID, err)
		}
		pruned := prune.Tree(doc, pr.Compiled())
		if pruned.Root == nil {
			t.Fatalf("%s: projector dropped the root", q.ID)
		}
		orig, err := xquery.NewEvaluator(doc).Eval(ast)
		if err != nil {
			t.Fatalf("%s on original: %v", q.ID, err)
		}
		after, err := xquery.NewEvaluator(pruned).Eval(ast)
		if err != nil {
			t.Fatalf("%s on pruned: %v", q.ID, err)
		}
		if o, p := xquery.Serialize(orig), xquery.Serialize(after); o != p {
			t.Errorf("%s: result changed after pruning\nπ = %s", q.ID, pr)
		}
	}
}

func TestByID(t *testing.T) {
	if q := ByID("QM05"); q == nil || q.ID != "QM05" {
		t.Fatal("ByID(QM05)")
	}
	if ByID("QM99") != nil {
		t.Fatal("ByID(QM99) should be nil")
	}
}
