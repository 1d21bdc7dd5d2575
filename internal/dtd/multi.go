package dtd

import "fmt"

// CombineProjections returns the table of the union of projectors
// compiled against one grammar (the same symbol table).
//
// Deprecated: a pass prunes with one projector; infer the union of the
// queries' projectors (§5) instead. Kept only because benchmark/seams.go
// calls it.
func CombineProjections(ps []*Projection) (*Projection, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("dtd: no projections to combine")
	}
	syms := ps[0].Syms
	row := syms.NewRow()
	for j, p := range ps {
		if p.Syms != syms {
			return nil, fmt.Errorf("dtd: projection %d compiled against a different symbol table", j)
		}
		row.Or(p.row)
	}
	return syms.Project(row), nil
}
