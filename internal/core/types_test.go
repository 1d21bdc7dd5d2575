package core

import (
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/xpath"
	"xmlproj/internal/xpathl"
)

// paperDTD builds the grammar. DTD syntax cannot literally write
// (d?, #PCDATA), so build it programmatically the way the paper writes it.
func paperDTD(t *testing.T) *dtd.DTD {
	t.Helper()
	d, err := dtd.ParseString(`
<!ELEMENT c (a, b)>
<!ELEMENT a (d?, atext)>
<!ELEMENT atext (#PCDATA)>
<!ELEMENT b (#PCDATA)>
<!ELEMENT d (a?)>
`, "c")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func lpath(t *testing.T, src string) *xpathl.Path {
	t.Helper()
	ps, err := xpathl.FromQuery(xpath.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 1 {
		t.Fatalf("expected one path for %q, got %d", src, len(ps))
	}
	return ps[0]
}

func typeOf(t *testing.T, d *dtd.DTD, src string) dtd.NameSet {
	t.Helper()
	return d.Symbols().NameSet(NewChecker(d).Type(lpath(t, src)))
}

// rowOf is the row of the given names, all of which d must define.
func rowOf(t *testing.T, d *dtd.DTD, names ...dtd.Name) dtd.Row {
	t.Helper()
	row := d.Symbols().NewRow()
	for _, n := range names {
		x, ok := d.Symbols().Sym(n)
		if !ok {
			t.Fatalf("grammar does not define %s", n)
		}
		row.Add(x)
	}
	return row
}

// axisNames and testNames are A_E and T_E from names to names.
func axisNames(t *testing.T, d *dtd.DTD, axis xpath.Axis, from ...dtd.Name) dtd.NameSet {
	t.Helper()
	s := d.Symbols()
	return s.NameSet(AxisType(s, rowOf(t, d, from...), axis))
}

func testNames(d *dtd.DTD, tau dtd.Row, test xpath.NodeTest) dtd.NameSet {
	s := d.Symbols()
	return s.NameSet(TestType(s, tau, test))
}

func TestAxisType(t *testing.T) {
	d := paperDTD(t)
	if got := axisNames(t, d, xpath.Child, "c"); !got.Equal(dtd.NewNameSet("a", "b")) {
		t.Fatalf("child(c) = %s", got)
	}
	desc := axisNames(t, d, xpath.Descendant, "c")
	for _, want := range []dtd.Name{"a", "b", "d", dtd.TextName("atext"), dtd.TextName("b")} {
		if !desc.Has(want) {
			t.Fatalf("descendant(c) misses %s: %s", want, desc)
		}
	}
	if desc.Has("c") {
		t.Fatalf("descendant(c) must not contain c: %s", desc)
	}
	// Y = a occurs under both c and d.
	if got := axisNames(t, d, xpath.Parent, "a"); !got.Equal(dtd.NewNameSet("c", "d")) {
		t.Fatalf("parent(a) = %s", got)
	}
	if got := axisNames(t, d, xpath.DescendantOrSelf, "c"); !got.Has("c") || !got.Has("d") {
		t.Fatalf("dos(c) = %s", got)
	}
	anc := axisNames(t, d, xpath.Ancestor, "d")
	if !anc.Has("a") || !anc.Has("c") || !anc.Has("d") {
		// d is recursive through a: d → a? and a → d?.
		t.Fatalf("ancestor(d) = %s", anc)
	}
}

func TestTestType(t *testing.T) {
	d := paperDTD(t)
	all := d.ReachableFromRoot()
	if got := testNames(d, all, xpath.NameTest("a")); !got.Equal(dtd.NewNameSet("a")) {
		t.Fatalf("T(a) = %s", got)
	}
	txt := testNames(d, all, xpath.TextTest)
	if !txt.Has(dtd.TextName("b")) || txt.Has("b") {
		t.Fatalf("T(text) = %s", txt)
	}
	star := testNames(d, all, xpath.NodeTest{Kind: xpath.TestStar})
	if star.Has(dtd.TextName("b")) || !star.Has("b") {
		t.Fatalf("T(*) = %s", star)
	}
	if got := testNames(d, all, xpath.NodeTestNode); !got.Equal(d.Symbols().NameSet(all)) {
		t.Fatalf("T(node) = %s", got)
	}
}

// The motivating example of §4.1: self::c/child::a/parent::node() must
// type to {X}={c}, not {c,d} — the context rules out d.
func TestContextMakesParentPrecise(t *testing.T) {
	d := paperDTD(t)
	got := typeOf(t, d, "self::c/child::a/parent::node()")
	if !got.Equal(dtd.NewNameSet("c")) {
		t.Fatalf("type = %s, want {c} (the context must exclude d)", got)
	}
	// Without a preceding downward step the parent really is ambiguous…
	got = typeOf(t, d, "descendant::a/parent::node()")
	if !got.Has("c") || !got.Has("d") {
		t.Fatalf("descendant::a/parent = %s, want both c and d", got)
	}
}

func TestTypeSimpleQueries(t *testing.T) {
	d := paperDTD(t)
	cases := []struct {
		src  string
		want dtd.NameSet
	}{
		{"self::c", dtd.NewNameSet("c")},
		{"child::a", dtd.NewNameSet("a")},
		{"child::nosuch", dtd.NameSet{}},
		{"child::a/child::d", dtd.NewNameSet("d")},
		{"child::b/child::text()", dtd.NewNameSet(dtd.TextName("b"))},
		{"descendant::d/ancestor::node()", dtd.NewNameSet("c", "a", "d")},
		{"child::b/parent::node()", dtd.NewNameSet("c")},
		{"child::b/child::a", dtd.NameSet{}}, // b has no element children
	}
	for _, c := range cases {
		if got := typeOf(t, d, c.src); !got.Equal(c.want) {
			t.Errorf("type(%s) = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestTypeEmptinessProperty2(t *testing.T) {
	// Property (2) of §4.1: paths that are empty on every instance type to
	// ∅ (on well-behaved DTDs).
	d := paperDTD(t)
	for _, src := range []string{
		"child::d",                             // d only occurs under a
		"child::a/child::b",                    // b is a child of c, not a
		"self::c/parent::node()",               // root has no parent
		"child::a/child::text()/child::node()", // text has no children
	} {
		if got := typeOf(t, d, src); !got.Empty() {
			t.Errorf("type(%s) = %s, want empty", src, got)
		}
	}
}

func TestTypeConditions(t *testing.T) {
	d := paperDTD(t)
	// [child::d] can hold only for a.
	got := typeOf(t, d, "descendant::node()[d]")
	if !got.Equal(dtd.NewNameSet("a")) {
		t.Fatalf("descendant::node()[d] = %s, want {a}", got)
	}
	// An unsatisfiable condition empties the type.
	got = typeOf(t, d, "child::a[nosuch]")
	if !got.Empty() {
		t.Fatalf("a[nosuch] = %s, want empty", got)
	}
	// A non-structural condition keeps everything.
	got = typeOf(t, d, "child::a[position() > 1]")
	if !got.Equal(dtd.NewNameSet("a")) {
		t.Fatalf("a[position()>1] = %s", got)
	}
	// Disjunction.
	got = typeOf(t, d, "child::node()[self::a or self::b]")
	if !got.Equal(dtd.NewNameSet("a", "b")) {
		t.Fatalf("[self::a or self::b] = %s", got)
	}
}

func TestTypeAttributes(t *testing.T) {
	d, err := dtd.ParseString(`
<!ELEMENT r (e*)>
<!ELEMENT e (#PCDATA)>
<!ATTLIST e id CDATA #REQUIRED other CDATA #IMPLIED>
`, "r")
	if err != nil {
		t.Fatal(err)
	}
	got := typeOf(t, d, "child::e/attribute::id")
	if !got.Equal(dtd.NewNameSet(dtd.AttrName("e", "id"))) {
		t.Fatalf("@id = %s", got)
	}
	got = typeOf(t, d, "child::e/attribute::*")
	if got.Len() != 2 {
		t.Fatalf("@* = %s", got)
	}
	got = typeOf(t, d, "child::e/attribute::id/parent::node()")
	if !got.Equal(dtd.NewNameSet("e")) {
		t.Fatalf("@id/parent = %s", got)
	}
	// The child axis never yields attribute names.
	got = typeOf(t, d, "child::e/child::node()")
	if got.Has(dtd.AttrName("e", "id")) {
		t.Fatalf("child::node() leaked attributes: %s", got)
	}
}

// §4.1's completeness counterexample 1: X → c[Y|Z] not *-guarded; the
// query self::c[child::a]/child::b is always empty but its type is not.
// The analysis must stay sound (superset) — and the DTD must be flagged.
func TestRecursiveUnguardedStaysSound(t *testing.T) {
	d, err := dtd.ParseString(`
<!ELEMENT c (a | b)>
<!ELEMENT a (a*, t)>
<!ELEMENT t (#PCDATA)>
<!ELEMENT b (#PCDATA)>
`, "c")
	if err != nil {
		t.Fatal(err)
	}
	if d.IsStarGuarded() {
		t.Fatal("DTD should not be *-guarded")
	}
	if !d.IsRecursive() {
		t.Fatal("DTD should be recursive")
	}
	got := typeOf(t, d, "self::c[a]/child::b")
	// Incomplete (paper says {Y,Z} are uselessly included) but must
	// contain at least the sound answer; the point is no crash and
	// supersetness, checked by the soundness property tests in prune.
	if !got.Has("b") {
		t.Fatalf("type misses b: %s", got)
	}
	// Counterexample 2: recursion + backward axis loses precision but the
	// result must still include the true answer {c}.
	got = typeOf(t, d, "self::c/child::a/parent::node()")
	if !got.Has("c") {
		t.Fatalf("type misses c: %s", got)
	}
}

func TestWellFormednessPreserved(t *testing.T) {
	// After every step of a chain of judgements, κ ⊆ τ ∪ ancestors(τ).
	d := paperDTD(t)
	c := NewChecker(d)
	syms := d.Symbols()
	env := RootEnv(syms)
	path := lpath(t, "descendant::node()/self::d/ancestor::node()/child::a")
	for _, s := range path.Steps {
		env = c.TypeStep(env, s)
		stray := env.Kappa.Clone()
		stray.AndNot(env.Tau)
		stray.AndNot(syms.Ancestors.Image(env.Tau))
		if !stray.Empty() {
			t.Fatalf("context %s not well-formed for τ=%s after %s", syms.NameSet(env.Kappa), syms.NameSet(env.Tau), s)
		}
	}
}
