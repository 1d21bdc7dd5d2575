package prune

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/gen"
	"xmlproj/internal/testkit"
	"xmlproj/internal/xmark"
)

// childrenOf is the ⇒E image of one name, sorted: its content, text and
// attribute names.
func childrenOf(d *dtd.DTD, n dtd.Name) []dtd.Name {
	s := d.Symbols()
	x, ok := s.Sym(n)
	if !ok {
		return nil
	}
	kids := s.Content.Row(x).Clone()
	kids.Or(s.Atts.Row(x))
	var out []dtd.Name
	for _, k := range s.SortedNames(kids) {
		out = append(out, dtd.Name(k))
	}
	return out
}

// sortedOf lists a name set in lexicographic order.
func sortedOf(pi dtd.NameSet) []dtd.Name {
	out := make([]dtd.Name, 0, len(pi))
	for n := range pi {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// randomProjector draws a random chain-closed name set: starting from the
// root, it repeatedly adds a random child of an already-kept name, so the
// result is a union of chains (Def. 2.6).
func randomProjector(d *dtd.DTD, rng *rand.Rand, steps int) dtd.NameSet {
	pi := dtd.NewNameSet(d.Root)
	kept := []dtd.Name{d.Root}
	for i := 0; i < steps; i++ {
		from := kept[rng.Intn(len(kept))]
		children := childrenOf(d, from)
		if len(children) == 0 {
			continue
		}
		c := children[rng.Intn(len(children))]
		if _, ok := pi[c]; !ok {
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
		want := testkit.Prune(doc, d.CompileProjection(pi))
		got, _, err := StreamString(doc.XML(), d, pi, StreamOptions{Validate: true})
		if err != nil {
			t.Fatalf("trial %d: stream: %v (π = %s)", trial, err, pi)
		}
		if got != want.XML() {
			t.Fatalf("trial %d: stream and tree disagree for π = %s\nstream: %s\ntree:   %s\ninput:  %s",
				trial, pi, got, want.XML(), doc.XML())
		}
		if want.NumNodes() > 0 && !testkit.IsProjectionOf(want.Root(), doc.Root()) {
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
		want := testkit.Prune(doc, d.CompileProjection(pi)).XML()
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
		once := testkit.Prune(doc, d.CompileProjection(pi))
		if once.NumNodes() == 0 {
			continue
		}
		twice := testkit.Prune(once, d.CompileProjection(pi))
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
		large := maps.Clone(small)
		// Extend the chain-closed set further.
		kept := sortedOf(large)
		for i := 0; i < 10; i++ {
			from := kept[rng.Intn(len(kept))]
			cs := childrenOf(d, from)
			if len(cs) == 0 {
				continue
			}
			large.Add(cs[rng.Intn(len(cs))])
			kept = sortedOf(large)
		}
		a := testkit.Prune(doc, d.CompileProjection(small))
		b := testkit.Prune(doc, d.CompileProjection(large))
		if a.NumNodes() == 0 {
			continue
		}
		if !testkit.IsProjectionOf(a.Root(), b.Root()) {
			t.Fatalf("small-projector prune is not a projection of large-projector prune")
		}
	}
}
