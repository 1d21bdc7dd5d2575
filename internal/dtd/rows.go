package dtd

import "math/bits"

// Row is a set of names of one grammar: bit i stands for symbol i of
// the grammar's Symbols. Rows of one table have the same length, so the
// set operations are word loops with no bounds to reconcile. A Row
// handed out by a Relation or by Symbols is shared and must not be
// modified; Clone it first.
type Row []uint64

// Has reports whether sym is a member.
func (r Row) Has(sym int32) bool { return r[sym>>6]&(1<<(uint(sym)&63)) != 0 }

// Add inserts sym.
func (r Row) Add(sym int32) { r[sym>>6] |= 1 << (uint(sym) & 63) }

// Empty reports whether no bit is set.
func (r Row) Empty() bool {
	for _, w := range r {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of members.
func (r Row) Len() int {
	n := 0
	for _, w := range r {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns a copy the caller owns.
func (r Row) Clone() Row { return append(Row(nil), r...) }

// Or adds every member of t to r.
func (r Row) Or(t Row) {
	for i, w := range t {
		r[i] |= w
	}
}

// And removes from r what is not in t.
func (r Row) And(t Row) {
	for i, w := range t {
		r[i] &= w
	}
}

// AndNot removes from r what is in t.
func (r Row) AndNot(t Row) {
	for i, w := range t {
		r[i] &^= w
	}
}

// Next returns the first member ≥ sym, or -1: iterate with
// for x := r.Next(0); x >= 0; x = r.Next(x + 1).
func (r Row) Next(sym int32) int32 {
	i := int(sym >> 6)
	if i >= len(r) {
		return -1
	}
	w := r[i] >> (uint(sym) & 63) << (uint(sym) & 63)
	for w == 0 {
		if i++; i == len(r) {
			return -1
		}
		w = r[i]
	}
	return int32(i<<6 + bits.TrailingZeros64(w))
}

// Relation is a binary relation over the names of one grammar, one Row
// per symbol: Row(x) is the image of x.
type Relation struct {
	words int
	bits  []uint64
}

func newRelation(n, words int) Relation {
	return Relation{words: words, bits: make([]uint64, n*words)}
}

// Row returns the image of one symbol (shared: do not modify).
func (r *Relation) Row(sym int32) Row {
	i := int(sym) * r.words
	return r.bits[i : i+r.words : i+r.words]
}

// Image returns the image of a set: the union of its members' rows, as
// a Row the caller owns.
func (r *Relation) Image(from Row) Row {
	out := make(Row, r.words)
	for x := from.Next(0); x >= 0; x = from.Next(x + 1) {
		out.Or(r.Row(x))
	}
	return out
}

// closure returns the transitive closure r⁺. Only the first inner
// symbols can lie strictly inside a path — element names; text and
// attribute names are leaves of ⇒E — so Warshall's pivot runs over
// those alone.
func (r *Relation) closure(inner int) Relation {
	c := Relation{words: r.words, bits: append([]uint64(nil), r.bits...)}
	n := int32(len(c.bits) / c.words)
	for k := int32(0); k < int32(inner); k++ {
		via := c.Row(k)
		for i := int32(0); i < n; i++ {
			if row := c.Row(i); row.Has(k) {
				row.Or(via)
			}
		}
	}
	return c
}
