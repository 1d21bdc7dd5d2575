package dtd

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// naiveMatch is a reference regex matcher (derivative-free backtracking
// over the structure) used to cross-check the dense content-model tables.
func naiveMatch(r Regex, seq []Name) bool {
	ends := naiveEnds(r, seq, 0)
	for _, e := range ends {
		if e == len(seq) {
			return true
		}
	}
	return false
}

// naiveEnds returns the positions reachable after matching r starting at
// position from.
func naiveEnds(r Regex, seq []Name, from int) []int {
	switch x := r.(type) {
	case Epsilon, nil:
		return []int{from}
	case Ref:
		if from < len(seq) && seq[from] == x.Name {
			return []int{from + 1}
		}
		return nil
	case Seq:
		pos := []int{from}
		for _, it := range x.Items {
			var next []int
			for _, p := range pos {
				next = append(next, naiveEnds(it, seq, p)...)
			}
			pos = dedupInts(next)
			if len(pos) == 0 {
				return nil
			}
		}
		return pos
	case Alt:
		var out []int
		for _, it := range x.Items {
			out = append(out, naiveEnds(it, seq, from)...)
		}
		return dedupInts(out)
	case Star:
		return naiveStar(x.Inner, seq, from)
	case Plus:
		var out []int
		for _, p := range naiveEnds(x.Inner, seq, from) {
			out = append(out, naiveStar(x.Inner, seq, p)...)
		}
		return dedupInts(out)
	case Opt:
		return dedupInts(append([]int{from}, naiveEnds(x.Inner, seq, from)...))
	}
	return nil
}

func naiveStar(inner Regex, seq []Name, from int) []int {
	seen := map[int]bool{from: true}
	work := []int{from}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		for _, q := range naiveEnds(inner, seq, p) {
			if q > p && !seen[q] { // progress only: avoid ε-loops
				seen[q] = true
				work = append(work, q)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	return out
}

func dedupInts(xs []int) []int {
	seen := map[int]bool{}
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// randomRegex draws a random content model over a tiny alphabet.
func randomRegex(rng *rand.Rand, depth int) Regex {
	if depth <= 0 {
		if rng.Intn(4) == 0 {
			return Epsilon{}
		}
		return Ref{alphabet[rng.Intn(len(alphabet))]}
	}
	switch rng.Intn(6) {
	case 0:
		return Ref{alphabet[rng.Intn(len(alphabet))]}
	case 1:
		return Seq{[]Regex{randomRegex(rng, depth-1), randomRegex(rng, depth-1)}}
	case 2:
		return Alt{[]Regex{randomRegex(rng, depth-1), randomRegex(rng, depth-1)}}
	case 3:
		return Star{randomRegex(rng, depth-1)}
	case 4:
		return Plus{randomRegex(rng, depth-1)}
	default:
		return Opt{randomRegex(rng, depth-1)}
	}
}

var alphabet = []Name{"a", "b", "c"}

// TestQuickDFAAgreesWithNaive cross-checks the dense table of a random
// content model (of r, over elements a, b, c) against the reference
// matcher on random sequences.
func TestQuickDFAAgreesWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		r := randomRegex(rng, 3)
		syms, e := modelOf(t, r, alphabet...)
		for s := 0; s < 25; s++ {
			n := rng.Intn(6)
			seq := make([]Name, n)
			for i := range seq {
				seq[i] = alphabet[rng.Intn(len(alphabet))]
			}
			want := naiveMatch(r, seq)
			if got := syms.Matches(e, seq); got != want {
				t.Fatalf("regex %s on %v: dfa=%v naive=%v", r, seq, got, want)
			}
		}
	}
}

// TestQuickNameSetAlgebra checks the set-algebra laws the analysis relies
// on, on the representation it runs on: rows of three words, whose
// members sit on both sides of each word boundary.
func TestQuickNameSetAlgebra(t *testing.T) {
	mk := func(bits uint16) Row {
		r := make(Row, 3)
		for i := 0; i < 16; i++ {
			if bits&(1<<i) != 0 {
				r.Add(int32(i * 12)) // 0, 12, …, 180
			}
		}
		return r
	}
	or := func(a, b Row) Row { c := a.Clone(); c.Or(b); return c }
	and := func(a, b Row) Row { c := a.Clone(); c.And(b); return c }
	minus := func(a, b Row) Row { c := a.Clone(); c.AndNot(b); return c }
	equal := func(a, b Row) bool { return minus(a, b).Empty() && minus(b, a).Empty() && a.Len() == b.Len() }
	type lawFn func(a, b, c Row) bool
	laws := map[string]lawFn{
		"union-commutes":     func(a, b, _ Row) bool { return equal(or(a, b), or(b, a)) },
		"intersect-commutes": func(a, b, _ Row) bool { return equal(and(a, b), and(b, a)) },
		"union-assoc":        func(a, b, c Row) bool { return equal(or(or(a, b), c), or(a, or(b, c))) },
		"distributivity":     func(a, b, c Row) bool { return equal(and(a, or(b, c)), or(and(a, b), and(a, c))) },
		"minus-disjoint":     func(a, b, _ Row) bool { return and(minus(a, b), b).Empty() },
		"union-covers": func(a, b, _ Row) bool {
			u := or(a, b)
			for x := a.Next(0); x >= 0; x = a.Next(x + 1) {
				if !u.Has(x) {
					return false
				}
			}
			return true
		},
		"len-inclusion-exclusion": func(a, b, _ Row) bool {
			return or(a, b).Len()+and(a, b).Len() == a.Len()+b.Len()
		},
	}
	for name, law := range laws {
		law := law
		if err := quick.Check(func(a, b, c uint16) bool { return law(mk(a), mk(b), mk(c)) }, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestQuickCloneIsDeep uses quick to confirm a row's Clone never
// aliases it.
func TestQuickCloneIsDeep(t *testing.T) {
	f := func(members []int32) bool {
		r := make(Row, 3)
		for _, x := range members {
			r.Add(x)
		}
		c := r.Clone()
		c.Add(191)
		return !r.Has(191)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Values: func(vs []reflect.Value, r *rand.Rand) {
		members := make([]int32, r.Intn(5))
		for i := range members {
			members[i] = int32(r.Intn(191))
		}
		vs[0] = reflect.ValueOf(members)
	}}); err != nil {
		t.Error(err)
	}
}
