package dataguide

import (
	"testing"

	"xmlproj/internal/core"
	"xmlproj/internal/dtd"
	"xmlproj/internal/gen"
	"xmlproj/internal/testkit"
	"xmlproj/internal/tree"
	"xmlproj/internal/validate"
	"xmlproj/internal/xmark"
	"xmlproj/internal/xpathl"
)

func TestFromDocumentBasics(t *testing.T) {
	doc, err := tree.ParseString(`<r a="1"><x>text</x><y><x/></y><y/></r>`)
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	if d.Root != "r" {
		t.Fatalf("root = %s", d.Root)
	}
	// x occurs both with text (under r) and empty (under y); the dataguide
	// merges by tag, so x allows text.
	if !childrenOf(d, "r")["x"] || !childrenOf(d, "y")["x"] {
		t.Fatalf("child structure wrong: %s", d)
	}
	if def := d.Defs["r"]; def.AttDef("a") == nil {
		t.Fatal("attribute a lost")
	}
	// The producing document is valid against its dataguide.
	if err := validate.Document(d, doc); err != nil {
		t.Fatalf("document invalid against its own dataguide: %v", err)
	}
}

// The defining property: every document is valid against its own
// dataguide — across random documents from random grammars.
func TestDocumentValidAgainstOwnDataguide(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		src := gen.RandomDTD(seed, gen.DTDOptions{Elements: 8, AllowRecursion: seed%2 == 0})
		doc := gen.New(src, seed, gen.Options{MaxDepth: 6}).Document()
		d, err := FromDocument(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := validate.Document(d, doc); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// Schemaless soundness: prune a document with a projector inferred from
// its dataguide; queries are preserved.
func TestSchemalessSoundness(t *testing.T) {
	queries := []string{
		"/site/regions/africa/item/name",
		"//keyword",
		"//person[homepage]/name",
		"//item[payment]/name/text()",
		"//bidder/increase",
	}
	doc := xmark.NewGenerator(0.002, 23).Document()
	d, err := FromDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range queries {
		q := testkit.XPath(src)
		paths, err := xpathl.FromQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := core.InferMaterialized(d, paths)
		if err != nil {
			t.Fatal(err)
		}
		pruned := testkit.Prune(doc, pr.Compiled())
		orig, err := testkit.Select(doc, q)
		if err != nil {
			t.Fatal(err)
		}
		if pruned.NumNodes() == 0 {
			if len(orig) > 0 {
				t.Fatalf("%s: dataguide projector dropped everything", src)
			}
			continue
		}
		after, err := testkit.Select(pruned, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(orig) != len(after) {
			t.Fatalf("%s: %d results before, %d after (π = %s)", src, len(orig), len(after), pr)
		}
		for i := range orig {
			if orig[i].N().ID() != after[i].N().ID() || orig[i].StringValue() != after[i].StringValue() {
				t.Fatalf("%s: result %d differs", src, i)
			}
		}
	}
}

// The dataguide projector should still prune aggressively: a selective
// query keeps a small fraction of the document.
func TestSchemalessSelectivity(t *testing.T) {
	doc := xmark.NewGenerator(0.004, 29).Document()
	d, err := FromDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	paths, _ := xpathl.FromQuery(testkit.XPath("/site/people/person/name"))
	pr, err := core.InferMaterialized(d, paths)
	if err != nil {
		t.Fatal(err)
	}
	pruned := testkit.Prune(doc, pr.Compiled())
	ratio := float64(pruned.SerializedSize()) / float64(doc.SerializedSize())
	if ratio > 0.2 {
		t.Fatalf("dataguide pruning kept %.0f%%, want selective", 100*ratio)
	}
}

// A dataguide is by construction *-guarded (every content model is a
// starred union), so the completeness machinery applies when the document
// is non-recursive.
func TestDataguideProperties(t *testing.T) {
	doc, _ := tree.ParseString(`<r><a><b/></a><a/></r>`)
	d, err := FromDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsStarGuarded() {
		t.Fatal("dataguide must be *-guarded")
	}
	if d.IsRecursive() {
		t.Fatal("non-recursive document gave a recursive dataguide")
	}
	// Recursive structure is reflected.
	doc2, _ := tree.ParseString(`<r><r/></r>`)
	d2, _ := FromDocument(doc2)
	if !d2.IsRecursive() {
		t.Fatal("recursive document should give a recursive dataguide")
	}
}

func TestFromDocumentEmpty(t *testing.T) {
	if _, err := FromDocument(&tree.Document{}); err == nil {
		t.Fatal("empty document accepted")
	}
}

func TestDataguideNamesAreTags(t *testing.T) {
	doc, _ := tree.ParseString(`<r><text>x</text></r>`)
	d, err := FromDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	// The awkward case: an element named "text" must still work.
	if _, ok := d.ByTag["text"]; !ok {
		t.Fatal("element named text lost")
	}
	if !childrenOf(d, "text")[dtd.TextName("text")] {
		t.Fatalf("text content of <text> lost: %s", d)
	}
}

// childrenOf is the ⇒E image of one name: its content, text and
// attribute names.
func childrenOf(d *dtd.DTD, n dtd.Name) map[dtd.Name]bool {
	s := d.Symbols()
	out := map[dtd.Name]bool{}
	x, ok := s.Sym(n)
	if !ok {
		return out
	}
	kids := s.Content.Row(x).Clone()
	kids.Or(s.Atts.Row(x))
	for _, k := range s.SortedNames(kids) {
		out[dtd.Name(k)] = true
	}
	return out
}
