package testkit

import (
	"testing"

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

func TestEqual(t *testing.T) {
	a := mustParse(t, `<a x="1"><b>t</b><c/></a>`)
	s := tree.NewStore(a)
	s.Copy(a.Root())
	if b := s.Document().Root(); b.ID() == a.Root().ID() || !Equal(a.Root(), b) {
		t.Fatal("Equal must ignore IDs")
	}
	for _, src := range []string{`<a x="2"><b>t</b><c/></a>`, `<a x="1"><b>u</b><c/></a>`, `<a x="1"><b>t</b></a>`, `<a x="1"><b>t</b><c/><c/></a>`, `<a x="1"><b>t</b><d/></a>`} {
		if Equal(a.Root(), mustParse(t, src).Root()) {
			t.Errorf("%s equals %s", src, a.XML())
		}
	}
}
