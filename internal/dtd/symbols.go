package dtd

import (
	"math/bits"
	"sort"
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
	tags   tagTable
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
	// Dense is the element's content-model automaton over symbol IDs
	// (see DenseDFA). It is nil until CompileDense has run, so only
	// validating code may read it.
	Dense *DenseDFA
}

// Symbols returns the grammar's symbol table, built on first use.
func (d *DTD) Symbols() *Symbols {
	d.symOnce.Do(func() { d.syms = newSymbols(d) })
	return d.syms
}

func newSymbols(d *DTD) *Symbols {
	s := &Symbols{byName: make(map[Name]int32, 2*len(d.order))}
	add := func(n Name, label string) {
		s.byName[n] = int32(len(s.names))
		s.names = append(s.names, n)
		s.labels = append(s.labels, label)
	}
	for _, n := range d.order {
		if def := d.Defs[n]; !def.Text {
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
	s.tags = newTagTable(s.infos)

	n, elems := len(s.names), len(s.infos)
	words := (n + 63) / 64
	s.Content, s.Atts, s.Parents = newRelation(n, words), newRelation(n, words), newRelation(n, words)
	s.Text, s.Attr = make(Row, words), make(Row, words)
	for e := range s.infos {
		e := int32(e)
		WalkRefs(s.infos[e].Def.Content, func(ref Name) {
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

// Info returns the per-element data for an element symbol.
func (s *Symbols) Info(sym int32) *SymInfo { return &s.infos[sym] }

// Lookup resolves an element tag to its symbol through the tag table:
// one hash of the tag, and mostly one comparison.
func (s *Symbols) Lookup(tag []byte) (int32, bool) {
	t := &s.tags
	mask := uint64(len(t.slots) - 1)
	for k := tagHash(tag) >> t.shift; ; k = (k + 1) & mask {
		sl := &t.slots[k]
		if sl.sym < 0 {
			return -1, false
		}
		if sl.tag == string(tag) {
			return sl.sym, true
		}
	}
}

// tagTable is the element tags as an open-addressed hash table: a
// power-of-two array of slots, at most half of them full, each tag in
// the first free slot from its hash on. It is built with the symbol table
// and never written again, so every prune of the grammar, concurrent ones
// included, reads it without a lock.
type tagTable struct {
	slots []tagSlot
	shift uint // a hash's top bits, 64 - shift of them, index slots
}

// tagSlot is one slot: a tag and its symbol, or sym -1 when free.
type tagSlot struct {
	tag string
	sym int32
}

func newTagTable(infos []SymInfo) tagTable {
	lg := bits.Len(uint(2 * len(infos)))
	t := tagTable{slots: make([]tagSlot, 1<<lg), shift: uint(64 - lg)}
	for i := range t.slots {
		t.slots[i].sym = -1
	}
	mask := uint64(len(t.slots) - 1)
	for e := range infos {
		k := tagHash(infos[e].Tag) >> t.shift
		for t.slots[k].sym >= 0 {
			k = (k + 1) & mask
		}
		t.slots[k] = tagSlot{tag: infos[e].Tag, sym: int32(e)}
	}
	return t
}

// tagHash mixes the length and up to the first and last eight bytes of a
// tag — all of it up to sixteen bytes, which covers most element names —
// with one multiplication, whose top bits depend on every input bit (the
// table indexes by them). Tags that differ only further in collide and
// are told apart by the comparison.
func tagHash[T string | []byte](tag T) uint64 {
	n := len(tag)
	h := uint64(n)
	switch {
	case n >= 8:
		h ^= le64(tag[:8]) ^ bits.RotateLeft64(le64(tag[n-8:]), 29)
	case n >= 4:
		h ^= uint64(le32(tag[:4]))<<8 ^ uint64(le32(tag[n-4:]))<<32
	case n > 0:
		h ^= uint64(tag[0])<<8 | uint64(tag[n/2])<<16 | uint64(tag[n-1])<<24
	}
	return h * 0x9E3779B97F4A7C15
}

func le64[T string | []byte](b T) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func le32[T string | []byte](b T) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
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

// SortedNames renders a row as text: the names it holds, in
// lexicographic order. It is π's one text form — a projector file, a
// projector's String and the result-cache fingerprint all read it.
func (s *Symbols) SortedNames(r Row) []string {
	out := make([]string, 0, r.Len())
	for x := r.Next(0); x >= 0; x = r.Next(x + 1) {
		out = append(out, string(s.names[x]))
	}
	sort.Strings(out)
	return out
}

// AttrProj is the compiled projector decision for one declared
// attribute. The declaration (name, Def) comes from the grammar and is
// the same for every projector; only Keep differs.
type AttrProj struct {
	// Attr is the attribute name as written in documents.
	Attr string
	// Keep reports whether π keeps elem@attr.
	Keep bool
	// Def is the declaration, for validating pruners.
	Def *AttDef
}

// Projection is one type projector compiled against a symbol table into
// a per-symbol decision table: for every element symbol, keep-element,
// keep-text and per-attribute decisions are one array load each.
// Compiling once per (DTD, π) moves every set-membership test off the
// token loop.
type Projection struct {
	// Syms is the symbol table the projector was compiled against.
	Syms *Symbols

	row      Row
	keepElem []bool
	keepText []bool
	attrs    [][]AttrProj
}

// Project compiles π, given as a row, into a decision table.
func (s *Symbols) Project(pi Row) *Projection {
	p := &Projection{
		Syms:     s,
		row:      pi,
		keepElem: make([]bool, len(s.infos)),
		keepText: make([]bool, len(s.infos)),
		attrs:    make([][]AttrProj, len(s.infos)),
	}
	for e := range s.infos {
		p.keepElem[e] = pi.Has(int32(e))
		if t := s.textOf[e]; t >= 0 {
			p.keepText[e] = pi.Has(t)
		}
		atts := s.infos[e].Def.Atts
		if len(atts) > 0 {
			ap := make([]AttrProj, len(atts))
			for j := range atts {
				ap[j] = AttrProj{Attr: atts[j].Attr, Keep: pi.Has(s.attrBase[e] + int32(j)), Def: &atts[j]}
			}
			p.attrs[e] = ap
		}
	}
	return p
}

// CompileProjection compiles π, given as a name set, against the
// grammar's symbol table. Names the grammar does not define are ignored.
func (d *DTD) CompileProjection(pi NameSet) *Projection {
	s := d.Symbols()
	row := s.NewRow()
	for n := range pi {
		if sym, ok := s.byName[n]; ok {
			row.Add(sym)
		}
	}
	return s.Project(row)
}

// KeepElem reports whether π keeps the element.
func (p *Projection) KeepElem(sym int32) bool { return p.keepElem[sym] }

// KeepText reports whether π keeps the element's text.
func (p *Projection) KeepText(sym int32) bool { return p.keepText[sym] }

// Attrs returns the compiled attribute decisions for a symbol, in
// declaration order.
func (p *Projection) Attrs(sym int32) []AttrProj { return p.attrs[sym] }
