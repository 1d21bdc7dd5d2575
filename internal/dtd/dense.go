package dtd

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// DenseDFA is a content-model automaton over a DTD's symbol table: a
// states × (symbols+1) []int32 transition array indexed by the per-DTD
// element symbol IDs, with one trailing column for the element's text
// pseudo-symbol and -1 as the dead state. Byte-level scanners take a
// child transition with two array loads — no string hashing, no map
// probe — which is what lets validation be fused with pruning at
// essentially no overhead (§2.3, §6 of the paper).
//
// Dense tables are built once per DTD, each straight from its content
// model (compileModel) — by Symbols.CompileDense, the first time
// something validates, not when the symbol table is built — and shared
// by every prune from then on.
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
// the tables (≈ 0.2 ms for XMark's 74 content models on a 2-vCPU Xeon,
// BenchmarkCompileDense) while the others wait. Code that does not
// validate must not read SymInfo.Dense.
func (s *Symbols) CompileDense() { s.denseOnce.Do(s.compileDense) }

func (s *Symbols) compileDense() {
	width := int32(len(s.infos) + 1)
	var scratch []int32
	for e := range s.infos {
		s.infos[e].Dense, scratch = s.compileModel(int32(e), width, scratch[:0])
	}
}

// glushkov is the position automaton of one content model: positions
// are the model's name occurrences in order (walk has numbered up to
// at), col[p] is the column position p steps on (-1: none) and follow's
// row p holds the positions that may come next.
type glushkov struct {
	col    []int32
	follow Relation
	at     int32
}

// compileModel builds element e's table from its content model: the
// Glushkov automaton, determinised by subset construction over position
// sets. The element's own text name steps on the last column. A name
// that resolves to no element symbol of this DTD can never be matched
// by a scanned document, so its positions get no column and are never
// entered. The table grows in trans, handed on to the next model, and
// is copied out at its final size, so the tables lie together rather
// than among their discarded growth steps.
func (s *Symbols) compileModel(e, width int32, trans []int32) (*DenseDFA, []int32) {
	// Position 0, a Ref to the empty name, stands before the first child
	// and is in no follow set: the start state is {0}, accepting when the
	// model is nullable.
	model := Seq{[]Regex{Ref{}, s.infos[e].Def.Content}}
	g := &glushkov{at: -1}
	WalkRefs(model, func(n Name) {
		col, ok := s.byName[n]
		switch {
		case ok && col == s.textOf[e]:
			col = width - 1
		case !ok || int(col) >= len(s.infos):
			col = -1
		}
		g.col = append(g.col, col)
	})
	g.follow = newRelation(len(g.col), (len(g.col)+63)/64)
	_, last, _ := g.walk(model)

	var accept []bool
	index := map[string]int32{}
	var sets []Row
	var key []byte
	state := func(set Row) int32 {
		key = key[:0]
		for _, w := range set {
			key = binary.LittleEndian.AppendUint64(key, w)
		}
		if id, ok := index[string(key)]; ok {
			return id
		}
		id := int32(len(sets))
		index[string(key)] = id
		sets = append(sets, set)
		for range width {
			trans = append(trans, -1)
		}
		return id
	}
	state(g.newRow(0))
	for st := int32(0); int(st) < len(sets); st++ {
		next, row := g.follow.Image(sets[st]), st*width
		sets[st].And(last) // done with as a set: it now tells whether st accepts
		accept = append(accept, !sets[st].Empty())
		for q := next.Next(0); q >= 0; q = next.Next(q + 1) {
			c := g.col[q]
			if c < 0 || trans[row+c] >= 0 {
				continue // no column, or its target is already set
			}
			to := g.newRow()
			for p := q; p >= 0; p = next.Next(p + 1) {
				if g.col[p] == c {
					to.Add(p)
				}
			}
			trans[row+c] = state(to)
		}
	}
	return &DenseDFA{trans: slices.Clone(trans), accept: accept, width: width}, trans
}

// newRow returns a set of positions holding ps.
func (g *glushkov) newRow(ps ...int32) Row {
	r := make(Row, g.follow.words)
	for _, p := range ps {
		r.Add(p)
	}
	return r
}

// walk numbers r's name occurrences on from g.at+1, links each to the
// occurrences that may follow it inside r (Seq: an item's last to the
// next item's first; Plus: last back to first; Star is Opt of Plus),
// and returns the positions r may start and end with and whether r
// matches the empty sequence.
func (g *glushkov) walk(r Regex) (first, last Row, nullable bool) {
	switch x := r.(type) {
	case Epsilon, nil:
		return g.newRow(), g.newRow(), true
	case Ref:
		g.at++
		return g.newRow(g.at), g.newRow(g.at), false
	case Seq:
		first, last, nullable = g.newRow(), g.newRow(), true
		for _, it := range x.Items {
			f, l, n := g.walk(it)
			g.link(last, f)
			if nullable {
				first.Or(f)
			}
			if !n {
				clear(last)
			}
			last.Or(l)
			nullable = nullable && n
		}
		return first, last, nullable
	case Alt:
		first, last = g.newRow(), g.newRow()
		for _, it := range x.Items {
			f, l, n := g.walk(it)
			first.Or(f)
			last.Or(l)
			nullable = nullable || n
		}
		return first, last, nullable
	case Star:
		return g.walk(Opt{Plus{x.Inner}})
	case Plus:
		first, last, nullable = g.walk(x.Inner)
		g.link(last, first)
		return first, last, nullable
	case Opt:
		first, last, _ = g.walk(x.Inner)
		return first, last, true
	}
	panic(fmt.Sprintf("dtd: unknown regex node %T", r))
}

// link adds to to the follow set of every position in from.
func (g *glushkov) link(from, to Row) {
	for p := from.Next(0); p >= 0; p = from.Next(p + 1) {
		g.follow.Row(p).Or(to)
	}
}
