package dtd

// DenseBuilt reports whether the table's dense content-model automata
// exist yet. It reads SymInfo.Dense without synchronisation, so a test
// calls it only when no CompileDense can be running.
func (s *Symbols) DenseBuilt() bool { return s.infos[0].Dense != nil }

// Matches reports whether the sequence of names is in the language: the
// map-walking matcher validation ran on before it stepped DenseDFA by
// symbol, kept as the second presentation the dense tables are tested
// against.
func (a *DFA) Matches(seq []Name) bool {
	s := a.Start()
	for _, n := range seq {
		s = a.Next(s, n)
		if s < 0 {
			return false
		}
	}
	return a.Accepting(s)
}
