package prune

import (
	"math/rand"
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/gen"
	"xmlproj/internal/tree"
	"xmlproj/internal/xmark"
)

// childrenOf is the ⇒E image of one name: its content, text and
// attribute names.
func childrenOf(d *dtd.DTD, n dtd.Name) dtd.NameSet {
	s := d.Symbols()
	x, ok := s.Sym(n)
	if !ok {
		return dtd.NameSet{}
	}
	kids := s.Content.Row(x).Clone()
	kids.Or(s.Atts.Row(x))
	return s.NameSet(kids)
}

// randomProjector draws a random chain-closed name set: starting from the
// root, it repeatedly adds a random child of an already-kept name, so the
// result is a union of chains (Def. 2.6).
func randomProjector(d *dtd.DTD, rng *rand.Rand, steps int) dtd.NameSet {
	pi := dtd.NewNameSet(d.Root)
	kept := []dtd.Name{d.Root}
	for i := 0; i < steps; i++ {
		from := kept[rng.Intn(len(kept))]
		children := childrenOf(d, from).Sorted()
		if len(children) == 0 {
			continue
		}
		c := children[rng.Intn(len(children))]
		if !pi.Has(c) {
			pi.Add(c)
			kept = append(kept, c)
		}
	}
	return pi
}

// TestStreamEqualsTreeProperty: for random valid documents and random
// chain-closed projectors, the streaming pruner and the tree pruner
// produce byte-identical documents, and both are ≤-projections of the
// input (Lemma 2.8).
func TestStreamEqualsTreeProperty(t *testing.T) {
	d, err := dtd.ParseString(`
<!ELEMENT s (a*, b?)>
<!ELEMENT a (c, d*)>
<!ATTLIST a id CDATA #REQUIRED kind (x|y) "x">
<!ELEMENT b (#PCDATA | c)*>
<!ELEMENT c (#PCDATA)>
<!ELEMENT d (a?, c?)>
`, "s")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		doc := gen.New(d, int64(trial), gen.Options{MaxDepth: 6}).Document()
		pi := randomProjector(d, rng, 1+rng.Intn(10))
		want := Tree(doc, d.CompileProjection(pi))
		got, _, err := StreamString(doc.XML(), d, pi, StreamOptions{Validate: true})
		if err != nil {
			t.Fatalf("trial %d: stream: %v (π = %s)", trial, err, pi)
		}
		if got != want.XML() {
			t.Fatalf("trial %d: stream and tree disagree for π = %s\nstream: %s\ntree:   %s\ninput:  %s",
				trial, pi, got, want.XML(), doc.XML())
		}
		if want.Root != nil && !tree.IsProjectionOf(want.Root, doc.Root) {
			t.Fatalf("trial %d: pruned tree is not a projection (Lemma 2.8)", trial)
		}
	}
}

// TestStreamEqualsTreeOnXMark repeats the agreement property on the real
// benchmark DTD and generator.
func TestStreamEqualsTreeOnXMark(t *testing.T) {
	d := xmark.DTD()
	rng := rand.New(rand.NewSource(7))
	doc := xmark.NewGenerator(0.002, 11).Document()
	xml := doc.XML()
	for trial := 0; trial < 15; trial++ {
		pi := randomProjector(d, rng, 5+rng.Intn(40))
		want := Tree(doc, d.CompileProjection(pi)).XML()
		got, _, err := StreamString(xml, d, pi, StreamOptions{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got != want {
			t.Fatalf("trial %d: mismatch for π = %s", trial, pi)
		}
	}
}

// TestPruneIdempotent: pruning an already-pruned document with the same
// projector is the identity.
func TestPruneIdempotent(t *testing.T) {
	d := xmark.DTD()
	doc := xmark.NewGenerator(0.002, 13).Document()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		pi := randomProjector(d, rng, 10+rng.Intn(30))
		once := Tree(doc, d.CompileProjection(pi))
		if once.Root == nil {
			continue
		}
		twice := Tree(once, d.CompileProjection(pi))
		if once.XML() != twice.XML() {
			t.Fatalf("pruning not idempotent for π = %s", pi)
		}
	}
}

// TestPruneMonotone: a larger projector keeps a superset of bytes — the
// ≤ order of Def. 2.1 respects projector inclusion.
func TestPruneMonotone(t *testing.T) {
	d := xmark.DTD()
	doc := xmark.NewGenerator(0.002, 17).Document()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		small := randomProjector(d, rng, 8)
		large := small.Clone()
		// Extend the chain-closed set further.
		kept := large.Sorted()
		for i := 0; i < 10; i++ {
			from := kept[rng.Intn(len(kept))]
			cs := childrenOf(d, from).Sorted()
			if len(cs) == 0 {
				continue
			}
			large.Add(cs[rng.Intn(len(cs))])
			kept = large.Sorted()
		}
		a := Tree(doc, d.CompileProjection(small))
		b := Tree(doc, d.CompileProjection(large))
		if a.Root == nil {
			continue
		}
		if !tree.IsProjectionOf(a.Root, b.Root) {
			t.Fatalf("small-projector prune is not a projection of large-projector prune")
		}
	}
}
