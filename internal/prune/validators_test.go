package prune

import (
	"io"
	"math/rand"
	"strings"
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/gen"
	"xmlproj/internal/tree"
	"xmlproj/internal/validate"
)

// The repo has two validators: validate.Document over a loaded tree and
// the validating prune over bytes. Both walk the same dense content-model
// tables; what each still states on its own is the root check, the
// attribute rules (declared, enumeration, #FIXED, #REQUIRED) and what an
// undeclared element is. TestValidatorsAgree holds them to one verdict —
// and the oracle, a third statement of those rules, with them.

// mutation makes one change to a valid document; it reports false when
// the document has no place for it.
type mutation struct {
	name  string
	apply func(rng *rand.Rand, d *dtd.DTD, doc *tree.Document) bool
}

// elements lists doc's elements that satisfy keep, in document order.
func elements(doc *tree.Document, keep func(*tree.Node) bool) []*tree.Node {
	var out []*tree.Node
	doc.Walk(func(n *tree.Node) bool {
		if n.Kind == tree.Element && keep(n) {
			out = append(out, n)
		}
		return true
	})
	return out
}

// withAttr picks an element carrying an attribute whose declaration
// satisfies want, and returns both.
func withAttr(rng *rand.Rand, d *dtd.DTD, doc *tree.Document, want func(*dtd.AttDef) bool) (*tree.Node, *dtd.AttDef) {
	var ads []*dtd.AttDef
	els := elements(doc, func(n *tree.Node) bool {
		for _, a := range n.Attrs {
			if ad := d.Def(dtd.Name(n.Tag)).AttDef(a.Name); ad != nil && want(ad) {
				ads = append(ads, ad)
				return true
			}
		}
		return false
	})
	if len(els) == 0 {
		return nil, nil
	}
	i := rng.Intn(len(els))
	return els[i], ads[i]
}

func removeAttr(n *tree.Node, name string) {
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs = append(n.Attrs[:i:i], n.Attrs[i+1:]...)
			return
		}
	}
}

var mutations = []mutation{
	{"required attribute dropped", func(rng *rand.Rand, d *dtd.DTD, doc *tree.Document) bool {
		n, ad := withAttr(rng, d, doc, func(ad *dtd.AttDef) bool { return ad.Required })
		if n != nil {
			removeAttr(n, ad.Attr)
		}
		return n != nil
	}},
	{"enumeration value changed", func(rng *rand.Rand, d *dtd.DTD, doc *tree.Document) bool {
		n, ad := withAttr(rng, d, doc, func(ad *dtd.AttDef) bool { return len(ad.Enum) > 0 })
		if n != nil {
			n.SetAttr(ad.Attr, "outside")
		}
		return n != nil
	}},
	{"#FIXED value changed", func(rng *rand.Rand, d *dtd.DTD, doc *tree.Document) bool {
		n, ad := withAttr(rng, d, doc, func(ad *dtd.AttDef) bool { return ad.Fixed != "" })
		if n != nil {
			n.SetAttr(ad.Attr, ad.Fixed+"x")
		}
		return n != nil
	}},
	{"two children swapped", func(rng *rand.Rand, _ *dtd.DTD, doc *tree.Document) bool {
		els := elements(doc, func(n *tree.Node) bool { return len(n.Children) >= 2 })
		if len(els) == 0 {
			return false
		}
		n := els[rng.Intn(len(els))]
		i := rng.Intn(len(n.Children) - 1)
		n.Children[i], n.Children[i+1] = n.Children[i+1], n.Children[i]
		return true
	}},
	{"undeclared element inserted", func(rng *rand.Rand, _ *dtd.DTD, doc *tree.Document) bool {
		els := elements(doc, func(*tree.Node) bool { return true })
		els[rng.Intn(len(els))].Append(tree.NewElement("undeclared"))
		return true
	}},
	{"undeclared attribute inserted", func(rng *rand.Rand, _ *dtd.DTD, doc *tree.Document) bool {
		els := elements(doc, func(*tree.Node) bool { return true })
		els[rng.Intn(len(els))].SetAttr("undeclared", "1")
		return true
	}},
	{"text under an element-only model", func(rng *rand.Rand, d *dtd.DTD, doc *tree.Document) bool {
		els := elements(doc, func(n *tree.Node) bool { return d.Def(dtd.TextName(dtd.Name(n.Tag))) == nil })
		if len(els) == 0 {
			return false
		}
		els[rng.Intn(len(els))].Append(tree.NewText("stray"))
		return true
	}},
}

func TestValidatorsAgree(t *testing.T) {
	rounds := int64(40)
	if testing.Short() {
		rounds = 8
	}
	applied := make(map[string]int)
	rejected := make(map[string]int)
	for seed := int64(0); seed < rounds; seed++ {
		d := gen.RandomDTD(seed, gen.DTDOptions{Elements: 8, AllowRecursion: seed%3 == 0, AttrChance: 60, TypedAttrs: true})
		all := dtd.NewNameSet(d.Names()...)
		for _, n := range d.Names() {
			if def := d.Def(n); !def.Text {
				for _, a := range def.Atts {
					all.Add(a.Name)
				}
			}
		}
		// verdict asks all three and fails the test when they differ.
		verdict := func(label, src string) bool {
			t.Helper()
			doc, err := tree.ParseString(src)
			if err != nil {
				t.Fatalf("seed %d, %s: the document does not load: %v\n%s", seed, label, err, src)
			}
			terr := validate.Document(d, doc)
			_, serr := Stream(io.Discard, strings.NewReader(src), d, all, StreamOptions{Validate: true})
			_, oerr := oracleStream(io.Discard, strings.NewReader(src), d, all, true)
			if (terr == nil) != (serr == nil) || (terr == nil) != (oerr == nil) {
				t.Fatalf("seed %d, %s: the validators disagree\ntree:    %v\nscanner: %v\noracle:  %v\ngrammar:\n%sdocument: %s",
					seed, label, terr, serr, oerr, d, src)
			}
			return terr == nil
		}
		for i := int64(0); i < 3; i++ {
			valid := gen.New(d, seed*7+i, gen.Options{MaxDepth: 6}).Document()
			if !verdict("as generated", valid.XML()) {
				t.Fatalf("seed %d: a generated document is invalid\n%s%s", seed, d, valid.XML())
			}
			rng := rand.New(rand.NewSource(seed*31 + i))
			for _, m := range mutations {
				doc := valid.Clone()
				if !m.apply(rng, d, doc) {
					continue
				}
				applied[m.name]++
				if !verdict(m.name, doc.XML()) {
					rejected[m.name]++
				}
			}
		}
	}
	// Every mutation found a place, and all but the swap (which a starred
	// model may allow) always invalidates.
	for _, m := range mutations {
		t.Logf("%s: applied %d times, rejected %d", m.name, applied[m.name], rejected[m.name])
		switch {
		case applied[m.name] == 0:
			t.Errorf("%s: never applied", m.name)
		case m.name == "two children swapped":
			if rejected[m.name] == 0 {
				t.Errorf("%s: applied %d times, never rejected", m.name, applied[m.name])
			}
		case rejected[m.name] != applied[m.name]:
			t.Errorf("%s: applied %d times, rejected %d", m.name, applied[m.name], rejected[m.name])
		}
	}
}
