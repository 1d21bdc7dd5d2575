package dtd

import "testing"

// DenseBuilt reports whether the table's dense content-model automata
// exist yet. It reads SymInfo.Dense without synchronisation, so a test
// calls it only when no CompileDense can be running.
func (s *Symbols) DenseBuilt() bool { return s.infos[0].Dense != nil }

// Matches reports whether element e's dense table accepts the sequence
// of names as its children: e's own text name steps on the text column,
// an element name on its symbol's, and any other name has no column and
// is rejected. It compiles the tables first.
func (s *Symbols) Matches(e int32, seq []Name) bool {
	s.CompileDense()
	dd := s.infos[e].Dense
	st := dd.Start()
	for _, n := range seq {
		sym, ok := s.byName[n]
		switch {
		case n == TextName(s.infos[e].Name):
			st = dd.NextText(st)
		case ok && int(sym) < len(s.infos):
			st = dd.Next(st, sym)
		default:
			return false
		}
	}
	return dd.Accepting(st)
}

// modelOf builds the grammar whose root r has content model re and
// whose other elements are the given names, each EMPTY, and returns its
// symbol table with r's symbol.
func modelOf(t testing.TB, re Regex, names ...Name) (*Symbols, int32) {
	t.Helper()
	elems := []Element{{Tag: "r", Content: re}}
	for _, n := range names {
		elems = append(elems, Element{Tag: string(n), Content: Epsilon{}})
	}
	d, err := New("r", elems)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := d.Symbols().Lookup([]byte("r"))
	return d.Symbols(), r
}

// DenseStates returns the total number of states of the dense tables.
func (s *Symbols) DenseStates() int {
	n := 0
	for i := range s.infos {
		n += len(s.infos[i].Dense.accept)
	}
	return n
}

// NumNames returns the number of symbols: every name of the grammar.
func (s *Symbols) NumNames() int { return len(s.names) }
