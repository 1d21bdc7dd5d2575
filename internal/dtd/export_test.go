package dtd

// DenseBuilt reports whether the table's dense content-model automata
// exist yet. It reads SymInfo.Dense without synchronisation, so a test
// calls it only when no CompileDense can be running.
func (s *Symbols) DenseBuilt() bool { return s.infos[0].Dense != nil }
