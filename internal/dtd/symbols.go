package dtd

import "strings"

// Symbols assigns every element name of the grammar a dense integer
// index, so byte-level scanners can resolve tags and answer projector
// membership with array indexing instead of string conversions and map
// probes on every token. The table is built once per DTD and cached;
// the grammar is immutable after parsing, so this is safe to share.
type Symbols struct {
	byTag map[string]int32
	infos []SymInfo
}

// SymInfo is the per-element data a scanner needs on the hot path.
type SymInfo struct {
	Name Name
	Def  *Def
	Tag  string
	// Dense is the element's content-model automaton recompiled over
	// symbol IDs (see DenseDFA); validating scanners walk it instead of
	// the map-based DFA.
	Dense *DenseDFA
}

// Symbols returns the cached symbol table for the grammar, including
// the dense content-model automata (compiled here, once per DTD, so
// every prune shares them).
func (d *DTD) Symbols() *Symbols {
	d.symOnce.Do(func() {
		s := &Symbols{byTag: make(map[string]int32, len(d.ByTag))}
		for _, n := range d.order {
			def := d.Defs[n]
			if def.Text {
				continue
			}
			s.byTag[def.Tag] = int32(len(s.infos))
			s.infos = append(s.infos, SymInfo{Name: n, Def: def, Tag: def.Tag})
		}
		s.compileDense(d)
		d.syms = s
	})
	return d.syms
}

// Len returns the number of element symbols.
func (s *Symbols) Len() int { return len(s.infos) }

// Info returns the per-element data for a symbol.
func (s *Symbols) Info(sym int32) *SymInfo { return &s.infos[sym] }

// Lookup resolves an element tag to its symbol. The tag is passed as
// bytes; the conversion in the map probe does not allocate.
func (s *Symbols) Lookup(tag []byte) (int32, bool) {
	sym, ok := s.byTag[string(tag)]
	return sym, ok
}

// AttrProj is the compiled projector decision for one declared
// attribute. The declaration (name, Def) comes from the grammar and is
// the same for every projector; only Keep differs.
type AttrProj struct {
	// Attr is the attribute name as written in documents.
	Attr string
	// Keep has bit j set when projector j keeps elem@attr.
	Keep uint64
	// Def is the declaration, for validating pruners.
	Def *AttDef
}

// Projection is N ≥ 1 type projectors compiled against a symbol table
// into one per-symbol decision table: for every element symbol,
// bitmasks over the projector set answer keep-element, keep-text and
// per-attribute decisions with one array load each. CompileProjection
// yields N = 1 (every mask is 0 or 1); CombineProjections fuses such
// tables, projector j answering in bit j. The pruner threads the masks
// through its element stack as a live set, so a symbol's fate for all N
// projectors costs the same lookup as for one, and compiling once per
// (DTD, π) moves every set-membership test off the token loop.
type Projection struct {
	// Syms is the symbol table the projectors were compiled against.
	Syms *Symbols

	n        int
	keepElem []uint64
	keepText []uint64
	attrs    [][]AttrProj
	// extra holds π entries naming attributes that the DTD does not
	// declare on that element (possible when a caller hand-builds π).
	// Almost always nil.
	extra []map[string]uint64
}

// CompileProjection compiles π against the grammar's symbol table.
func (d *DTD) CompileProjection(pi NameSet) *Projection {
	syms := d.Symbols()
	p := &Projection{
		Syms:     syms,
		n:        1,
		keepElem: make([]uint64, len(syms.infos)),
		keepText: make([]uint64, len(syms.infos)),
		attrs:    make([][]AttrProj, len(syms.infos)),
	}
	for i := range syms.infos {
		info := &syms.infos[i]
		if pi.Has(info.Name) {
			p.keepElem[i] = 1
		}
		if pi.Has(TextName(info.Name)) {
			p.keepText[i] = 1
		}
		atts := info.Def.Atts
		if len(atts) > 0 {
			ap := make([]AttrProj, len(atts))
			for j := range atts {
				ap[j] = AttrProj{Attr: atts[j].Attr, Def: &atts[j]}
				if pi.Has(atts[j].Name) {
					ap[j].Keep = 1
				}
			}
			p.attrs[i] = ap
		}
	}
	// π entries for attributes the DTD never declared still keep matching
	// document attributes (the decoder-based pruner behaves this way), so
	// they need a dynamic side table.
	for n := range pi {
		if !n.IsAttr() {
			continue
		}
		s := string(n)
		at := strings.IndexByte(s, '@')
		sym, ok := syms.byTag[elemTagOf(d, Name(s[:at]))]
		if !ok {
			continue
		}
		attr := s[at+1:]
		declared := false
		for _, ap := range p.attrs[sym] {
			if ap.Attr == attr {
				declared = true
				break
			}
		}
		if !declared {
			if p.extra == nil {
				p.extra = make([]map[string]uint64, len(syms.infos))
			}
			if p.extra[sym] == nil {
				p.extra[sym] = make(map[string]uint64)
			}
			p.extra[sym][attr] = 1
		}
	}
	return p
}

// elemTagOf maps an element name to its tag ("" if not an element).
func elemTagOf(d *DTD, n Name) string {
	if def := d.Defs[n]; def != nil && !def.Text {
		return def.Tag
	}
	return ""
}

// N returns the number of projectors in the table.
func (p *Projection) N() int { return p.n }

// All is the mask with one bit per projector.
func (p *Projection) All() uint64 {
	if p.n == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(p.n)) - 1
}

// KeepElem returns the mask of projectors keeping the element.
func (p *Projection) KeepElem(sym int32) uint64 { return p.keepElem[sym] }

// KeepText returns the mask of projectors keeping the element's text.
func (p *Projection) KeepText(sym int32) uint64 { return p.keepText[sym] }

// Attrs returns the compiled attribute decisions for a symbol, in
// declaration order.
func (p *Projection) Attrs(sym int32) []AttrProj { return p.attrs[sym] }

// KeepExtraAttr returns the mask of projectors keeping an attribute the
// DTD does not declare on this element. The byte-slice map probe does
// not allocate.
func (p *Projection) KeepExtraAttr(sym int32, attr []byte) uint64 {
	if p.extra == nil || p.extra[sym] == nil {
		return 0
	}
	return p.extra[sym][string(attr)]
}
