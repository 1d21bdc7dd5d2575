package dtd

import "fmt"

// MaxMultiProjections bounds how many projectors one fused decision
// table can hold: the pruner threads the projector set through its
// element stack as a uint64 live-set bitmask, so one fused pass covers
// at most 64 projectors; CombineProjections rejects a larger set.
const MaxMultiProjections = 64

// CombineProjections fuses up to MaxMultiProjections single-projector
// tables into one N-wide decision table. Every member must have been
// compiled against the same DTD (the same symbol table); projector
// order is preserved — bit j of every mask answers for ps[j].
func CombineProjections(ps []*Projection) (*Projection, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("dtd: no projections to combine")
	}
	if len(ps) > MaxMultiProjections {
		return nil, fmt.Errorf("dtd: %d projections exceed the fused limit of %d", len(ps), MaxMultiProjections)
	}
	syms := ps[0].Syms
	for j, p := range ps {
		if p.Syms != syms {
			return nil, fmt.Errorf("dtd: projection %d compiled against a different symbol table", j)
		}
		if p.n != 1 {
			return nil, fmt.Errorf("dtd: projection %d is already a fused table", j)
		}
	}
	n := syms.Len()
	mp := &Projection{
		Syms:     syms,
		n:        len(ps),
		keepElem: make([]uint64, n),
		keepText: make([]uint64, n),
		attrs:    make([][]AttrProj, n),
	}
	for sym := 0; sym < n; sym++ {
		for j, p := range ps {
			mp.keepElem[sym] |= p.keepElem[sym] << uint(j)
			mp.keepText[sym] |= p.keepText[sym] << uint(j)
		}
		// Declared-attribute lists come from the grammar, so every member
		// has the same attributes in the same order; only Keep differs.
		if decl := ps[0].attrs[sym]; len(decl) > 0 {
			ma := make([]AttrProj, len(decl))
			for a := range decl {
				ma[a] = AttrProj{Attr: decl[a].Attr, Def: decl[a].Def}
				for j, p := range ps {
					ma[a].Keep |= p.attrs[sym][a].Keep << uint(j)
				}
			}
			mp.attrs[sym] = ma
		}
		for j, p := range ps {
			if p.extra == nil || p.extra[sym] == nil {
				continue
			}
			if mp.extra == nil {
				mp.extra = make([]map[string]uint64, n)
			}
			if mp.extra[sym] == nil {
				mp.extra[sym] = make(map[string]uint64)
			}
			for attr, keep := range p.extra[sym] {
				mp.extra[sym][attr] |= keep << uint(j)
			}
		}
	}
	return mp, nil
}
