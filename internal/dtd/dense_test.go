package dtd

import (
	"math/rand"
	"testing"
)

// TestDenseDFAMatchesMapDFA: the dense symbol-indexed tables must agree
// with the map-based automata on every transition a scanner can take —
// element symbols, the text pseudo-symbol, and acceptance — state by
// state, and on random walks.
func TestDenseDFAMatchesMapDFA(t *testing.T) {
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
	for i := 0; i < syms.Len(); i++ {
		info := syms.Info(int32(i))
		dfa := info.Def.Automaton()
		dd := info.Dense
		if dd == nil {
			t.Fatalf("%s: no dense automaton", info.Name)
		}
		nstates := len(dfa.accept)
		for st := 0; st < nstates; st++ {
			if got, want := dd.Accepting(int32(st)), dfa.Accepting(st); got != want {
				t.Errorf("%s state %d: dense accepting %v, map %v", info.Name, st, got, want)
			}
			for j := 0; j < syms.Len(); j++ {
				child := syms.Info(int32(j))
				got := dd.Next(int32(st), int32(j))
				want := dfa.Next(st, child.Name)
				if int(got) != want {
					t.Errorf("%s state %d on %s: dense %d, map %d", info.Name, st, child.Name, got, want)
				}
			}
			got := dd.NextText(int32(st))
			want := dfa.Next(st, TextName(info.Name))
			if int(got) != want {
				t.Errorf("%s state %d on text: dense %d, map %d", info.Name, st, got, want)
			}
		}
		if got, want := dd.Accepting(-1), dfa.Accepting(-1); got != want {
			t.Errorf("%s dead state: dense accepting %v, map %v", info.Name, got, want)
		}
		if dd.Next(-1, 0) != -1 || dd.NextText(-1) != -1 {
			t.Errorf("%s: dead state must be absorbing", info.Name)
		}
	}

	// Random walks: the two automata must track each other move for move.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		info := syms.Info(int32(rng.Intn(syms.Len())))
		dfa, dd := info.Def.Automaton(), info.Dense
		ms, ds := dfa.Start(), dd.Start()
		for step := 0; step < 12; step++ {
			if rng.Intn(4) == 0 {
				ms = dfa.Next(ms, TextName(info.Name))
				ds = dd.NextText(ds)
			} else {
				j := int32(rng.Intn(syms.Len()))
				ms = dfa.Next(ms, syms.Info(j).Name)
				ds = dd.Next(ds, j)
			}
			if (ms < 0) != (ds < 0) || (ms >= 0 && int32(ms) != ds) {
				t.Fatalf("%s walk diverged: map %d, dense %d", info.Name, ms, ds)
			}
			if dfa.Accepting(ms) != dd.Accepting(ds) {
				t.Fatalf("%s walk acceptance diverged at map %d / dense %d", info.Name, ms, ds)
			}
			if ms < 0 {
				break
			}
		}
	}
}
