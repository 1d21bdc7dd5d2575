package prune

import (
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/gen"
	"xmlproj/internal/tree"
	"xmlproj/internal/validate"
)

// The product has one validator, the validating prune over bytes: with
// π = every name it is xmlproj.DTD.Validate. Two test oracles state
// Def. 2.4 again: validate.Document over a loaded tree, which walks the
// same dense content-model tables, and the encoding/xml pruner, which
// steps content models by derivatives. What each states on its own is
// the root check, the attribute rules (declared, enumeration, #FIXED,
// #REQUIRED) and what an undeclared element is. TestValidatorsAgree
// holds the three to one verdict.

// mutation makes one change to a copy of a valid document; it reports
// false when the document has no place for it.
type mutation struct {
	name  string
	apply func(rng *rand.Rand, d *dtd.DTD, doc *tree.Document) (*tree.Document, bool)
}

// elements lists doc's elements that satisfy keep, in document order.
func elements(doc *tree.Document, keep func(tree.Node) bool) []tree.Node {
	var out []tree.Node
	for i := range int32(doc.NumNodes()) {
		if n := doc.At(i); n.Kind() == tree.Element && keep(n) {
			out = append(out, n)
		}
	}
	return out
}

// numChildren counts n's children.
func numChildren(n tree.Node) int {
	k := 0
	for c := n.FirstChild(); c.Valid(); c = c.NextSibling() {
		k++
	}
	return k
}

// withAttr picks an element carrying an attribute whose declaration
// satisfies want, and returns both.
func withAttr(rng *rand.Rand, d *dtd.DTD, doc *tree.Document, want func(*dtd.AttDef) bool) (tree.Node, *dtd.AttDef) {
	var ads []*dtd.AttDef
	els := elements(doc, func(n tree.Node) bool {
		for i := range n.NumAttrs() {
			if ad := d.Defs[dtd.Name(n.Tag())].AttDef(n.AttrAt(i).Name); ad != nil && want(ad) {
				ads = append(ads, ad)
				return true
			}
		}
		return false
	})
	if len(els) == 0 {
		return tree.Node{}, nil
	}
	i := rng.Intn(len(els))
	return els[i], ads[i]
}

// change is what rebuilt does to one element: rewrite its attributes,
// reorder its children, add content after them.
type change struct {
	attrs func([]tree.Attr) []tree.Attr
	kids  func([]tree.Node) []tree.Node
	extra func(b *tree.Builder)
}

// rebuilt copies doc with c applied to the element n.
func rebuilt(doc *tree.Document, n tree.Node, c change) *tree.Document {
	b := tree.NewBuilder(0)
	var write func(m tree.Node)
	write = func(m tree.Node) {
		if m.Kind() == tree.Text {
			b.TextString(m.Data())
			return
		}
		var attrs []tree.Attr
		for i := range m.NumAttrs() {
			attrs = append(attrs, m.AttrAt(i))
		}
		var kids []tree.Node
		for k := m.FirstChild(); k.Valid(); k = k.NextSibling() {
			kids = append(kids, k)
		}
		if m == n && c.attrs != nil {
			attrs = c.attrs(attrs)
		}
		if m == n && c.kids != nil {
			kids = c.kids(kids)
		}
		b.Start(m.Tag())
		for _, a := range attrs {
			b.Attr(a.Name, a.Value)
		}
		for _, k := range kids {
			write(k)
		}
		if m == n && c.extra != nil {
			c.extra(b)
		}
		b.EndElement()
	}
	write(doc.Root())
	return b.Document()
}

// setAttr is a change that sets one attribute.
func setAttr(name, value string) change {
	return change{attrs: func(as []tree.Attr) []tree.Attr { return append(as, tree.Attr{Name: name, Value: value}) }}
}

var mutations = []mutation{
	{"required attribute dropped", func(rng *rand.Rand, d *dtd.DTD, doc *tree.Document) (*tree.Document, bool) {
		n, ad := withAttr(rng, d, doc, func(ad *dtd.AttDef) bool { return ad.Required })
		if !n.Valid() {
			return nil, false
		}
		return rebuilt(doc, n, change{attrs: func(as []tree.Attr) []tree.Attr {
			return slices.DeleteFunc(as, func(a tree.Attr) bool { return a.Name == ad.Attr })
		}}), true
	}},
	{"enumeration value changed", func(rng *rand.Rand, d *dtd.DTD, doc *tree.Document) (*tree.Document, bool) {
		n, ad := withAttr(rng, d, doc, func(ad *dtd.AttDef) bool { return len(ad.Enum) > 0 })
		if !n.Valid() {
			return nil, false
		}
		return rebuilt(doc, n, setAttr(ad.Attr, "outside")), true
	}},
	{"#FIXED value changed", func(rng *rand.Rand, d *dtd.DTD, doc *tree.Document) (*tree.Document, bool) {
		n, ad := withAttr(rng, d, doc, func(ad *dtd.AttDef) bool { return ad.Fixed != "" })
		if !n.Valid() {
			return nil, false
		}
		return rebuilt(doc, n, setAttr(ad.Attr, ad.Fixed+"x")), true
	}},
	{"two children swapped", func(rng *rand.Rand, _ *dtd.DTD, doc *tree.Document) (*tree.Document, bool) {
		els := elements(doc, func(n tree.Node) bool { return numChildren(n) >= 2 })
		if len(els) == 0 {
			return nil, false
		}
		n := els[rng.Intn(len(els))]
		i := rng.Intn(numChildren(n) - 1)
		return rebuilt(doc, n, change{kids: func(ks []tree.Node) []tree.Node {
			ks[i], ks[i+1] = ks[i+1], ks[i]
			return ks
		}}), true
	}},
	{"undeclared element inserted", func(rng *rand.Rand, _ *dtd.DTD, doc *tree.Document) (*tree.Document, bool) {
		els := elements(doc, func(tree.Node) bool { return true })
		return rebuilt(doc, els[rng.Intn(len(els))], change{extra: func(b *tree.Builder) {
			b.Start("undeclared")
			b.EndElement()
		}}), true
	}},
	{"undeclared attribute inserted", func(rng *rand.Rand, _ *dtd.DTD, doc *tree.Document) (*tree.Document, bool) {
		els := elements(doc, func(tree.Node) bool { return true })
		return rebuilt(doc, els[rng.Intn(len(els))], setAttr("undeclared", "1")), true
	}},
	{"text under an element-only model", func(rng *rand.Rand, d *dtd.DTD, doc *tree.Document) (*tree.Document, bool) {
		els := elements(doc, func(n tree.Node) bool { return d.Defs[dtd.TextName(dtd.Name(n.Tag()))] == nil })
		if len(els) == 0 {
			return nil, false
		}
		return rebuilt(doc, els[rng.Intn(len(els))], change{extra: func(b *tree.Builder) { b.TextString("stray") }}), true
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
		all := everyName(d)
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
				doc, ok := m.apply(rng, d, valid)
				if !ok {
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
