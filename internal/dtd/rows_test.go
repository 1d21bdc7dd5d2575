package dtd

import (
	"fmt"
	"strings"
	"testing"
)

func sym(t *testing.T, s *Symbols, n Name) int32 {
	t.Helper()
	x, ok := s.Sym(n)
	if !ok {
		t.Fatalf("name %s has no symbol", n)
	}
	return x
}

func regexNames(r Regex) map[Name]bool {
	out := map[Name]bool{}
	WalkRefs(r, func(n Name) { out[n] = true })
	return out
}

// names renders a row as its sorted names, space-separated.
func names(s *Symbols, r Row) string { return strings.Join(s.SortedNames(r), " ") }

// TestRowOpsAcrossWords exercises every Row operation on members that
// sit on both sides of the 64- and 128-bit boundaries.
func TestRowOpsAcrossWords(t *testing.T) {
	members := []int32{0, 1, 62, 63, 64, 65, 127, 128, 129, 190}
	r := make(Row, 3)
	if !r.Empty() || r.Len() != 0 || r.Next(0) != -1 {
		t.Fatalf("fresh row is not empty: %v", r)
	}
	for _, m := range members {
		r.Add(m)
	}
	var got []int32
	for x := r.Next(0); x >= 0; x = r.Next(x + 1) {
		got = append(got, x)
	}
	if fmt.Sprint(got) != fmt.Sprint(members) {
		t.Fatalf("iteration = %v, want %v", got, members)
	}
	if r.Len() != len(members) || r.Has(2) || !r.Has(128) || r.Next(191) != -1 || r.Next(192) != -1 {
		t.Fatalf("Len/Has/Next wrong on %v", r)
	}
	c := r.Clone()
	c.Add(2)
	if r.Has(2) {
		t.Fatal("Clone shares storage")
	}
	evens := make(Row, 3)
	for x := int32(0); x < 192; x += 2 {
		evens.Add(x)
	}
	and, andNot, or := r.Clone(), r.Clone(), r.Clone()
	and.And(evens)
	andNot.AndNot(evens)
	or.Or(evens)
	for x := int32(0); x < 192; x++ {
		if and.Has(x) != (r.Has(x) && x%2 == 0) || andNot.Has(x) != (r.Has(x) && x%2 == 1) || or.Has(x) != (r.Has(x) || x%2 == 0) {
			t.Fatalf("And/AndNot/Or wrong at %d", x)
		}
	}
}

// TestSymbolNumbering pins the layout the scanner and the analysis both
// rely on: element symbols first, in declaration order (the scanner's
// IDs), then text names, then attribute names element by element.
func TestSymbolNumbering(t *testing.T) {
	d := mustDTD(t, bookDTD, "")
	s := d.Symbols()
	want := []Name{"bib", "book", "title", "author", "year",
		"title#text", "author#text", "year#text", "book@isbn", "book@lang"}
	if s.Len() != 5 || s.NumNames() != len(want) {
		t.Fatalf("Len = %d, NumNames = %d, want 5 and %d", s.Len(), s.NumNames(), len(want))
	}
	for i, n := range want {
		if s.Name(int32(i)) != n || sym(t, s, n) != int32(i) {
			t.Fatalf("symbol %d is %s, want %s", i, s.Name(int32(i)), n)
		}
	}
	for e := int32(0); e < int32(s.Len()); e++ {
		if got, ok := s.Lookup([]byte(s.Info(e).Tag)); !ok || got != e {
			t.Fatalf("Lookup(%s) = %d, want %d", s.Info(e).Tag, got, e)
		}
	}
	if names(s, s.Text) != "author#text title#text year#text" || names(s, s.Attr) != "book@isbn book@lang" {
		t.Fatalf("masks: text %s, attr %s", names(s, s.Text), names(s, s.Attr))
	}
	if s.Label(1) != "book" || s.Label(6) != "#text" || s.Label(9) != "lang" || s.Root() != 0 {
		t.Fatalf("labels / root wrong: %q %q %q %d", s.Label(1), s.Label(6), s.Label(9), s.Root())
	}
	row := d.CompileProjection(NewNameSet("book", "year#text", "book@lang", "book@nosuch", "nosuch")).row
	if got := names(s, row); got != "book book@lang year#text" {
		t.Fatalf("compiled row = %s", got)
	}
}

// wideDTD declares n leaf elements under one root, each with its own
// text name, so the grammar has 2n+1 names and its rows span words.
func wideDTD(n int) string {
	var sb strings.Builder
	sb.WriteString("<!ELEMENT r (")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(" | ")
		}
		fmt.Fprintf(&sb, "l%d", i)
	}
	sb.WriteString(")*>\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<!ELEMENT l%d (#PCDATA)>\n", i)
	}
	return sb.String()
}

func TestRelationsAcrossWords(t *testing.T) {
	for _, n := range []int{31, 32, 40, 63, 64, 70} { // 63 … 141 names
		d := mustDTD(t, wideDTD(n), "r")
		s := d.Symbols()
		if s.NumNames() != 2*n+1 {
			t.Fatalf("n=%d: %d names", n, s.NumNames())
		}
		if got := s.Descendants.Row(s.Root()).Len(); got != 2*n {
			t.Fatalf("n=%d: root has %d descendants, want %d", n, got, 2*n)
		}
		last := sym(t, s, TextName(Name(fmt.Sprintf("l%d", n-1))))
		if anc := names(s, s.Ancestors.Row(last)); anc != fmt.Sprintf("l%d r", n-1) {
			t.Fatalf("n=%d: ancestors of the last text name = %s", n, anc)
		}
		if s.Reachable.Len() != 2*n+1 || d.IsRecursive() || !d.IsParentUnambiguous() {
			t.Fatalf("n=%d: reach %d, recursive %v", n, s.Reachable.Len(), d.IsRecursive())
		}
	}
}
