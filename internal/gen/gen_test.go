package gen

import (
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/tree"
	"xmlproj/internal/validate"
	"xmlproj/internal/xpath"
)

var testDTDs = map[string]string{
	"flat": `
<!ELEMENT r (a*, b?)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b EMPTY>
`,
	"recursive": `
<!ELEMENT part (name, part*)>
<!ELEMENT name (#PCDATA)>
`,
	"mutual-recursion": `
<!ELEMENT a (b?)>
<!ELEMENT b (a?)>
`,
	"choice": `
<!ELEMENT r (x | y)>
<!ELEMENT x (#PCDATA)>
<!ELEMENT y EMPTY>
`,
	"plus-required": `
<!ELEMENT r (a+)>
<!ELEMENT a (b+)>
<!ELEMENT b (#PCDATA)>
`,
	"mixed": `
<!ELEMENT r (#PCDATA | e)*>
<!ELEMENT e (#PCDATA)>
`,
	"attrs": `
<!ELEMENT r (e*)>
<!ELEMENT e EMPTY>
<!ATTLIST e id ID #REQUIRED ref IDREF #IMPLIED kind (p|q) "p" fix CDATA #FIXED "1">
`,
	"deep-required": `
<!ELEMENT r (s)>
<!ELEMENT s (t)>
<!ELEMENT t (u)>
<!ELEMENT u (#PCDATA)>
`,
}

// TestGeneratedDocumentsAlwaysValid is the generator's core contract:
// every generated document validates against its DTD, across DTD shapes
// and seeds.
func TestGeneratedDocumentsAlwaysValid(t *testing.T) {
	for name, src := range testDTDs {
		t.Run(name, func(t *testing.T) {
			d, err := dtd.ParseString(src, "")
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(0); seed < 25; seed++ {
				doc := New(d, seed, Options{MaxDepth: 5, MaxRepeat: 3}).Document()
				if err := validate.Document(d, doc); err != nil {
					t.Fatalf("seed %d: invalid document: %v\n%s", seed, err, doc.XML())
				}
			}
		})
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	d, _ := dtd.ParseString(testDTDs["recursive"], "")
	a := New(d, 5, Options{}).Document().XML()
	b := New(d, 5, Options{}).Document().XML()
	if a != b {
		t.Fatal("same seed, different documents")
	}
}

func TestGeneratorBoundsDepth(t *testing.T) {
	d, _ := dtd.ParseString(testDTDs["recursive"], "")
	for seed := int64(0); seed < 10; seed++ {
		doc := New(d, seed, Options{MaxDepth: 3, MaxRepeat: 2}).Document()
		maxDepth := 0
		var walk func(n *tree.Node, depth int)
		walk = func(n *tree.Node, depth int) {
			if n.Kind == tree.Element && depth > maxDepth {
				maxDepth = depth
			}
			for _, c := range n.Children {
				walk(c, depth+1)
			}
		}
		walk(doc.Root, 0)
		// Beyond MaxDepth the generator takes minimal expansions; for this
		// DTD (part* is skippable) nesting must stop right there, plus the
		// mandatory name child.
		if maxDepth > 3+1 {
			t.Fatalf("seed %d: depth %d exceeds bound", seed, maxDepth)
		}
	}
}

func TestQueryGeneratorProducesValidQueries(t *testing.T) {
	d, _ := dtd.ParseString(testDTDs["plus-required"], "")
	qg := NewQueryGen(d, 3, QueryOptions{MaxSteps: 5, MaxPreds: 3, AllAxes: true})
	for i := 0; i < 200; i++ {
		q := qg.Query()
		src := q.String()
		if _, err := xpath.Parse(src); err != nil {
			t.Fatalf("generated query %q does not parse: %v", src, err)
		}
	}
}

func TestQueryGeneratorDeterministic(t *testing.T) {
	d, _ := dtd.ParseString(testDTDs["flat"], "")
	a := NewQueryGen(d, 9, QueryOptions{}).Query().String()
	b := NewQueryGen(d, 9, QueryOptions{}).Query().String()
	if a != b {
		t.Fatal("same seed, different queries")
	}
}
