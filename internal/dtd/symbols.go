package dtd

import (
	"strings"
	"sync"
)

// Symbols is the one dense numbering of every name of the grammar.
// Element names come first, in declaration order — symbols 0 … Len()-1
// are what byte-level scanners resolve tags to and index decision
// tables with — then the text names, then the attribute names, element
// by element. Everything the static analysis asks of the grammar is a
// bit Row over this numbering. The table and its rows are built once per
// DTD, on first use, and shared (the grammar is immutable after
// parsing); the dense content-model automata are not: see CompileDense.
type Symbols struct {
	byTag  map[string]int32
	byName map[Name]int32
	infos  []SymInfo
	names  []Name
	labels []string
	root   int32
	// textOf[e] is the text name of element e (-1: none); attrBase[e]
	// is the symbol of its first declared attribute, the rest follow.
	textOf   []int32
	attrBase []int32

	// Content is ⇒E restricted to tree children (each content model's
	// names: elements and the element's own text name), Atts its
	// attribute part, Parents the converse of their union; Descendants
	// is Content⁺ (no attribute names) and Ancestors Parents⁺. Read-only.
	Content, Atts, Parents, Descendants, Ancestors Relation
	// Text and Attr are the sets of text and attribute names; Reachable
	// is the ⇒E*-image of the root, every name that can occur in a valid
	// document. Read-only.
	Text, Attr, Reachable Row

	denseOnce sync.Once
}

// SymInfo is the per-element data a scanner needs on the hot path.
type SymInfo struct {
	Name Name
	Def  *Def
	Tag  string
	// Dense is the element's content-model automaton recompiled over
	// symbol IDs (see DenseDFA). It is nil until CompileDense has run,
	// so only validating code may read it.
	Dense *DenseDFA
}

// Symbols returns the grammar's symbol table, built on first use.
func (d *DTD) Symbols() *Symbols {
	d.symOnce.Do(func() { d.syms = newSymbols(d) })
	return d.syms
}

func newSymbols(d *DTD) *Symbols {
	s := &Symbols{
		byTag:  make(map[string]int32, len(d.ByTag)),
		byName: make(map[Name]int32, 2*len(d.order)),
	}
	add := func(n Name, label string) {
		s.byName[n] = int32(len(s.names))
		s.names = append(s.names, n)
		s.labels = append(s.labels, label)
	}
	for _, n := range d.order {
		if def := d.Defs[n]; !def.Text {
			s.byTag[def.Tag] = int32(len(s.infos))
			s.infos = append(s.infos, SymInfo{Name: n, Def: def, Tag: def.Tag})
			add(n, def.Tag)
		}
	}
	for _, n := range d.order {
		if d.Defs[n].Text {
			add(n, "#text")
		}
	}
	firstAttr := int32(len(s.names))
	s.textOf = make([]int32, len(s.infos))
	s.attrBase = make([]int32, len(s.infos))
	for e := range s.infos {
		s.textOf[e] = -1
		if t, ok := s.byName[TextName(s.infos[e].Name)]; ok {
			s.textOf[e] = t
		}
		s.attrBase[e] = int32(len(s.names))
		for _, a := range s.infos[e].Def.Atts {
			add(a.Name, a.Attr)
		}
	}
	s.root = s.byName[d.Root]

	n, elems := len(s.names), len(s.infos)
	words := (n + 63) / 64
	s.Content, s.Atts, s.Parents = newRelation(n, words), newRelation(n, words), newRelation(n, words)
	s.Text, s.Attr = make(Row, words), make(Row, words)
	for e := range s.infos {
		e := int32(e)
		walkRefs(s.infos[e].Def.Content, func(ref Name) {
			s.Content.Row(e).Add(s.byName[ref])
			s.Parents.Row(s.byName[ref]).Add(e)
		})
		for j := range s.infos[e].Def.Atts {
			s.Atts.Row(e).Add(s.attrBase[e] + int32(j))
			s.Parents.Row(s.attrBase[e] + int32(j)).Add(e)
		}
	}
	for x := int32(elems); x < int32(n); x++ {
		if x < firstAttr {
			s.Text.Add(x)
		} else {
			s.Attr.Add(x)
		}
	}
	s.Descendants = s.Content.closure(elems)
	s.Ancestors = s.Parents.closure(elems)
	s.Reachable = s.Descendants.Row(s.root).Clone()
	s.Reachable.Add(s.root)
	s.Reachable.Or(s.Atts.Image(s.Reachable))
	return s
}

// Len returns the number of element symbols.
func (s *Symbols) Len() int { return len(s.infos) }

// NumNames returns the number of symbols: every name of the grammar.
func (s *Symbols) NumNames() int { return len(s.names) }

// Info returns the per-element data for an element symbol.
func (s *Symbols) Info(sym int32) *SymInfo { return &s.infos[sym] }

// Lookup resolves an element tag to its symbol. The tag is passed as
// bytes; the conversion in the map probe does not allocate.
func (s *Symbols) Lookup(tag []byte) (int32, bool) {
	sym, ok := s.byTag[string(tag)]
	return sym, ok
}

// LookupTag is Lookup for a tag held as a string (a tree node's).
func (s *Symbols) LookupTag(tag string) (int32, bool) {
	sym, ok := s.byTag[tag]
	return sym, ok
}

// Sym resolves any name of the grammar to its symbol.
func (s *Symbols) Sym(n Name) (int32, bool) {
	sym, ok := s.byName[n]
	return sym, ok
}

// Name returns the name a symbol stands for.
func (s *Symbols) Name(sym int32) Name { return s.names[sym] }

// Label returns what a name test compares a symbol against: an
// element's tag, an attribute's name as written in documents. A text
// name has none and reads "#text", which no name test can spell.
func (s *Symbols) Label(sym int32) string { return s.labels[sym] }

// Root returns the symbol of the root name.
func (s *Symbols) Root() int32 { return s.root }

// NewRow returns a set over this table holding the given symbols.
func (s *Symbols) NewRow(syms ...int32) Row {
	r := make(Row, len(s.Text))
	for _, x := range syms {
		r.Add(x)
	}
	return r
}

// NameSet renders a row in the exchange form: the names a projector
// carries outside the grammar (files, hand-built π, the tree pruner).
func (s *Symbols) NameSet(r Row) NameSet {
	out := make(NameSet, r.Len())
	for x := r.Next(0); x >= 0; x = r.Next(x + 1) {
		out.Add(s.names[x])
	}
	return out
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
// per-attribute decisions with one array load each. Project and
// CompileProjection yield N = 1 (every mask is 0 or 1);
// CombineProjections fuses such tables, projector j answering in bit j.
// The pruner threads the masks through its element stack as a live set,
// so a symbol's fate for all N projectors costs the same lookup as for
// one, and compiling once per (DTD, π) moves every set-membership test
// off the token loop.
type Projection struct {
	// Syms is the symbol table the projectors were compiled against.
	Syms *Symbols

	n        int
	row      Row
	keepElem []uint64
	keepText []uint64
	attrs    [][]AttrProj
	// extra holds π entries naming attributes that the DTD does not
	// declare on that element (possible when a caller hand-builds π).
	// Almost always nil.
	extra []map[string]uint64
}

// Project compiles π, given as a row, into a decision table.
func (s *Symbols) Project(pi Row) *Projection {
	p := &Projection{
		Syms:     s,
		n:        1,
		row:      pi,
		keepElem: make([]uint64, len(s.infos)),
		keepText: make([]uint64, len(s.infos)),
		attrs:    make([][]AttrProj, len(s.infos)),
	}
	for e := range s.infos {
		if pi.Has(int32(e)) {
			p.keepElem[e] = 1
		}
		if t := s.textOf[e]; t >= 0 && pi.Has(t) {
			p.keepText[e] = 1
		}
		atts := s.infos[e].Def.Atts
		if len(atts) > 0 {
			ap := make([]AttrProj, len(atts))
			for j := range atts {
				ap[j] = AttrProj{Attr: atts[j].Attr, Def: &atts[j]}
				if pi.Has(s.attrBase[e] + int32(j)) {
					ap[j].Keep = 1
				}
			}
			p.attrs[e] = ap
		}
	}
	return p
}

// CompileProjection compiles π, given in the exchange form, against the
// grammar's symbol table. Names the grammar does not define are ignored,
// with one exception a hand-built π may rely on: elem@attr (and
// elem#text) on a declared element still keep matching document
// attributes (text) the DTD never declared there — the decoder-based
// pruner behaves this way — through a dynamic side table.
func (d *DTD) CompileProjection(pi NameSet) *Projection {
	s := d.Symbols()
	row := s.NewRow()
	var rest []Name
	for n := range pi {
		if sym, ok := s.byName[n]; ok {
			row.Add(sym)
		} else {
			rest = append(rest, n)
		}
	}
	p := s.Project(row)
	for _, n := range rest {
		i := strings.IndexAny(string(n), "#@")
		if i < 0 {
			continue
		}
		e, ok := s.byName[n[:i]]
		if !ok || int(e) >= len(s.infos) {
			continue
		}
		switch {
		case n == TextName(n[:i]):
			p.keepText[e] = 1
		case n[i] == '@':
			if p.extra == nil {
				p.extra = make([]map[string]uint64, len(s.infos))
			}
			if p.extra[e] == nil {
				p.extra[e] = make(map[string]uint64)
			}
			p.extra[e][string(n[i+1:])] = 1
		}
	}
	return p
}

// Row returns π as a row over Syms: the names the grammar defines that
// the projector keeps. It is nil for a fused table.
func (p *Projection) Row() Row { return p.row }

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
