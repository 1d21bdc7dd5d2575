package dtd

import "testing"

// TestDenseDFAMatchesNaive: every element's dense table accepts a
// sequence of children exactly when the backtracking matcher over its
// content model does (naiveMatch, which shares nothing with the table's
// construction), on every word up to length 4 over the element symbols
// and the element's text name.
func TestDenseDFAMatchesNaive(t *testing.T) {
	d, err := ParseString(`
<!ELEMENT s (a*, b?)>
<!ELEMENT a (c, d*)>
<!ELEMENT b (#PCDATA | c)*>
<!ELEMENT c (#PCDATA)>
<!ELEMENT d (a?, c?)>
<!ELEMENT e EMPTY>
<!ELEMENT f ANY>
`, "s")
	if err != nil {
		t.Fatal(err)
	}
	syms := d.Symbols()
	if syms.DenseBuilt() {
		t.Fatal("Symbols() compiled the dense automata; they are built when something validates")
	}
	syms.CompileDense()
	for e := int32(0); e < int32(syms.Len()); e++ {
		info := syms.Info(e)
		if info.Dense == nil {
			t.Fatalf("%s: no dense automaton", info.Name)
		}
		letters := []Name{TextName(info.Name)}
		for j := int32(0); j < int32(syms.Len()); j++ {
			letters = append(letters, syms.Info(j).Name)
		}
		var words func(seq []Name)
		words = func(seq []Name) {
			if got, want := syms.Matches(e, seq), naiveMatch(info.Def.Content, seq); got != want {
				t.Errorf("%s (model %s) on %v: dense %v, naive %v", info.Name, info.Def.Content, seq, got, want)
			}
			if len(seq) < 4 {
				for _, n := range letters {
					words(append(seq[:len(seq):len(seq)], n))
				}
			}
		}
		words(nil)
		if info.Dense.Accepting(-1) || info.Dense.Next(-1, 0) != -1 || info.Dense.NextText(-1) != -1 {
			t.Errorf("%s: dead state must be absorbing and rejecting", info.Name)
		}
	}
}
