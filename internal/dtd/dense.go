package dtd

// DenseDFA is a content-model automaton recompiled against a DTD's
// symbol table: a states × (symbols+1) []int32 transition array indexed
// by the per-DTD element symbol IDs, with one trailing column for the
// element's text pseudo-symbol and -1 as the dead state. Byte-level
// scanners take a child transition with two array loads — no string
// hashing, no map probe — which is what lets validation be fused with
// pruning at essentially no overhead (§2.3, §6 of the paper).
//
// Dense tables are built once per DTD from the map-based DFAs — by
// Symbols.CompileDense, the first time something validates, not when the
// symbol table is built — and shared by every prune from then on.
type DenseDFA struct {
	// trans[state*width+sym] = next state, or -1. Column width-1 is the
	// text pseudo-symbol (the element's own "#text" name).
	trans []int32
	// accept[state] reports whether the state is accepting.
	accept []bool
	width  int32
}

// Start returns the start state.
func (a *DenseDFA) Start() int32 { return 0 }

// Next returns the successor state on an element symbol, or -1.
func (a *DenseDFA) Next(state, sym int32) int32 {
	if state < 0 {
		return -1
	}
	return a.trans[state*a.width+sym]
}

// NextText returns the successor state on the element's text
// pseudo-symbol, or -1.
func (a *DenseDFA) NextText(state int32) int32 {
	if state < 0 {
		return -1
	}
	return a.trans[state*a.width+a.width-1]
}

// Accepting reports whether state is accepting.
func (a *DenseDFA) Accepting(state int32) bool {
	return state >= 0 && a.accept[state]
}

// CompileDense makes sure every SymInfo.Dense is there: a pruner calls
// it when prepared with Validate, and whoever gets there first compiles
// the tables (≈ 1 ms for XMark's 74 content models) while the others
// wait. Code that does not validate must not read SymInfo.Dense.
func (s *Symbols) CompileDense() { s.denseOnce.Do(s.compileDense) }

// compileDense recompiles every element's content-model DFA into a
// dense table over the symbol IDs. Names in a content model that do not
// resolve to an element symbol of this DTD (or to the element's own
// text name) can never be matched by a scanned document, so their
// transitions are dropped — the dense walk and the map walk then agree
// on every sequence a scanner can feed them.
func (s *Symbols) compileDense() {
	width := int32(len(s.infos) + 1)
	for i := range s.infos {
		info := &s.infos[i]
		dfa := info.Def.Automaton()
		nstates := len(dfa.trans)
		dd := &DenseDFA{
			trans:  make([]int32, int32(nstates)*width),
			accept: append([]bool(nil), dfa.accept...),
			width:  width,
		}
		for j := range dd.trans {
			dd.trans[j] = -1
		}
		for st := 0; st < nstates; st++ {
			row := int32(st) * width
			for n, next := range dfa.trans[st] {
				col, ok := s.byName[n]
				switch {
				case !ok:
					continue
				case col == s.textOf[i]:
					col = width - 1
				case int(col) >= len(s.infos):
					continue
				}
				dd.trans[row+col] = int32(next)
			}
		}
		info.Dense = dd
	}
}
