package tree_test

// Def. 2.1's projection order on trees that keep their nodes' IDs. The
// file sits outside the package because internal/testkit, which holds the
// order for the tests of several packages, imports this one.

import (
	"testing"

	"xmlproj/internal/testkit"
	"xmlproj/internal/tree"
)

func mustParse(t *testing.T, s string) *tree.Document {
	t.Helper()
	d, err := tree.ParseString(s)
	if err != nil {
		t.Fatalf("ParseString(%q): %v", s, err)
	}
	return d
}

// project copies d without the subtrees drop picks, with a new tag for
// the nodes relabel names, keeping the IDs of what it keeps.
func project(d *tree.Document, drop func(tree.Node) bool, relabel map[tree.NodeID]string) *tree.Document {
	b := tree.NewBuilder(0)
	var walk func(n tree.Node)
	walk = func(n tree.Node) {
		if drop(n) {
			return
		}
		if n.Kind() == tree.Text {
			b.TextString(n.Data())
			b.SetID(n.ID())
			return
		}
		tag := n.Tag()
		if l, ok := relabel[n.ID()]; ok {
			tag = l
		}
		b.Start(tag)
		b.SetID(n.ID())
		for c := n.FirstChild(); c.Valid(); c = c.NextSibling() {
			walk(c)
		}
		b.EndElement()
	}
	walk(d.Root())
	return b.Document()
}

func TestIsProjectionOf(t *testing.T) {
	full := mustParse(t, `<a><b><d/></b><c/></a>`)
	none := func(tree.Node) bool { return false }
	// Remove <c/>.
	p1 := project(full, func(n tree.Node) bool { return n.Tag() == "c" }, nil)
	if !testkit.IsProjectionOf(p1.Root(), full.Root()) {
		t.Fatal("dropping a subtree should be a projection")
	}
	if p1.Root().LastDescendant().ID() != 2 {
		t.Fatalf("the projection renumbered its nodes: %d", p1.Root().LastDescendant().ID())
	}
	// Remove <d/> under <b>.
	p2 := project(full, func(n tree.Node) bool { return n.Tag() == "d" }, nil)
	if !testkit.IsProjectionOf(p2.Root(), full.Root()) {
		t.Fatal("dropping a nested subtree should be a projection")
	}
	// Relabelling is not a projection.
	p3 := project(full, none, map[tree.NodeID]string{1: "z"})
	if testkit.IsProjectionOf(p3.Root(), full.Root()) {
		t.Fatal("relabelled tree must not be a projection")
	}
	// The full tree is a projection of itself.
	if !testkit.IsProjectionOf(full.Root(), full.Root()) {
		t.Fatal("tree must be a projection of itself")
	}
	// But not vice versa once something is dropped.
	if testkit.IsProjectionOf(full.Root(), p1.Root()) {
		t.Fatal("projection order must not be symmetric here")
	}
}
