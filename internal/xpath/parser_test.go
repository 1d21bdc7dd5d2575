package xpath

import (
	"testing"
)

func mustPath(t *testing.T, src string) *Path {
	t.Helper()
	e, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	pe, ok := e.(PathExpr)
	if !ok || pe.Filter != nil {
		t.Fatalf("%s is not a location path", src)
	}
	return &pe.Path
}

func TestParseSimplePaths(t *testing.T) {
	cases := []struct {
		src   string
		steps int
		abs   bool
	}{
		{"child::a", 1, false},
		{"a", 1, false},
		{"a/b/c", 3, false},
		{"/a/b", 2, true},
		{"//a", 2, true}, // descendant-or-self::node() + child::a
		{"a//b", 3, false},
		{"descendant::a/ancestor::b", 2, false},
		{".", 1, false},
		{"..", 1, false},
		{"@id", 1, false},
		{"a/@id", 2, false},
		{"self::node()", 1, false},
		{"preceding-sibling::x", 1, false},
	}
	for _, c := range cases {
		p := mustPath(t, c.src)
		if len(p.Steps) != c.steps || p.Absolute != c.abs {
			t.Errorf("Parse(%q) = %d steps abs=%v, want %d abs=%v (%s)",
				c.src, len(p.Steps), p.Absolute, c.steps, c.abs, p)
		}
	}
}

func TestParseAxes(t *testing.T) {
	cases := map[string]Axis{
		"child::a":              Child,
		"descendant::a":         Descendant,
		"parent::a":             Parent,
		"ancestor::a":           Ancestor,
		"self::a":               Self,
		"descendant-or-self::a": DescendantOrSelf,
		"ancestor-or-self::a":   AncestorOrSelf,
		"following-sibling::a":  FollowingSibling,
		"preceding-sibling::a":  PrecedingSibling,
		"following::a":          Following,
		"preceding::a":          Preceding,
		"attribute::a":          Attribute,
	}
	for src, want := range cases {
		p := mustPath(t, src)
		if p.Steps[0].Axis != want {
			t.Errorf("%q parsed with axis %s, want %s", src, p.Steps[0].Axis, want)
		}
	}
}

func TestParseAbbreviations(t *testing.T) {
	if s := mustPath(t, ".").Steps[0]; s.Axis != Self || s.Test.Kind != TestNode {
		t.Errorf(". = %s", s)
	}
	if s := mustPath(t, "..").Steps[0]; s.Axis != Parent || s.Test.Kind != TestNode {
		t.Errorf(".. = %s", s)
	}
	if s := mustPath(t, "@x").Steps[0]; s.Axis != Attribute || s.Test.Name != "x" {
		t.Errorf("@x = %s", s)
	}
	p := mustPath(t, "a//b")
	if p.Steps[1].Axis != DescendantOrSelf || p.Steps[1].Test.Kind != TestNode {
		t.Errorf("a//b middle step = %s", p.Steps[1])
	}
}

func TestParseNodeTests(t *testing.T) {
	if s := mustPath(t, "child::text()").Steps[0]; s.Test.Kind != TestText {
		t.Errorf("text() = %+v", s.Test)
	}
	if s := mustPath(t, "child::node()").Steps[0]; s.Test.Kind != TestNode {
		t.Errorf("node() = %+v", s.Test)
	}
	if s := mustPath(t, "child::*").Steps[0]; s.Test.Kind != TestStar {
		t.Errorf("* = %+v", s.Test)
	}
	// Crucial: bare "text" is a NAME test (XMark's <text> element).
	if s := mustPath(t, "child::text").Steps[0]; s.Test.Kind != TestName || s.Test.Name != "text" {
		t.Errorf("bare text = %+v, want name test", s.Test)
	}
	if s := mustPath(t, "description/text/keyword").Steps[1]; s.Test.Kind != TestName {
		t.Errorf("mid-path text = %+v, want name test", s.Test)
	}
}

func TestParsePredicates(t *testing.T) {
	e := MustParse(`a[b]`)
	pe := e.(PathExpr)
	if len(pe.Path.Steps[0].Preds) != 1 {
		t.Fatalf("a[b]: %d preds", len(pe.Path.Steps[0].Preds))
	}
	e = MustParse(`a[b][c]`)
	pe = e.(PathExpr)
	if len(pe.Path.Steps[0].Preds) != 2 {
		t.Fatalf("a[b][c]: %d preds", len(pe.Path.Steps[0].Preds))
	}
	e = MustParse(`a[b = "x" and position() > 1]`)
	pred := e.(PathExpr).Path.Steps[0].Preds[0].(Binary)
	if pred.Op != OpAnd {
		t.Fatalf("predicate op = %s", pred.Op)
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	e := MustParse("1 + 2 * 3")
	b := e.(Binary)
	if b.Op != OpAdd {
		t.Fatalf("top op = %s, want +", b.Op)
	}
	if inner := b.R.(Binary); inner.Op != OpMul {
		t.Fatalf("right op = %s, want *", inner.Op)
	}
	e = MustParse("a or b and c")
	if e.(Binary).Op != OpOr {
		t.Fatalf("or/and precedence wrong")
	}
	e = MustParse("1 < 2 = true()")
	if e.(Binary).Op != OpEq {
		t.Fatalf("relational/equality precedence wrong")
	}
	e = MustParse("- 3 + 1")
	if e.(Binary).Op != OpAdd {
		t.Fatalf("unary minus binds tighter than +")
	}
}

func TestParseXQueryComparators(t *testing.T) {
	for src, op := range map[string]Op{
		"1 eq 2": OpEq, "1 ne 2": OpNeq, "1 lt 2": OpLt,
		"1 le 2": OpLe, "1 gt 2": OpGt, "1 ge 2": OpGe,
	} {
		if got := MustParse(src).(Binary).Op; got != op {
			t.Errorf("%q op = %s, want %s", src, got, op)
		}
	}
}

func TestParseFunctionCalls(t *testing.T) {
	e := MustParse(`contains(title, "Dante")`)
	c := e.(Call)
	if c.Name != "contains" || len(c.Args) != 2 {
		t.Fatalf("contains parse: %+v", c)
	}
	e = MustParse("count(//a) > 3")
	if e.(Binary).Op != OpGt {
		t.Fatal("count comparison")
	}
	e = MustParse("true()")
	if e.(Call).Name != "true" {
		t.Fatal("nullary call")
	}
}

func TestParseUnionAndFilter(t *testing.T) {
	e := MustParse("a | b | c")
	b := e.(Binary)
	if b.Op != OpUnion {
		t.Fatalf("union op = %s", b.Op)
	}
	e = MustParse("$x/a/b")
	pe := e.(PathExpr)
	if _, ok := pe.Filter.(Var); !ok || len(pe.Path.Steps) != 2 {
		t.Fatalf("$x/a/b = %+v", pe)
	}
	e = MustParse("$x[1]")
	pe = e.(PathExpr)
	if len(pe.FilterPreds) != 1 {
		t.Fatalf("$x[1] preds = %d", len(pe.FilterPreds))
	}
	e = MustParse("(//a)[2]/b")
	pe = e.(PathExpr)
	if pe.Filter == nil || len(pe.FilterPreds) != 1 || len(pe.Path.Steps) != 1 {
		t.Fatalf("(//a)[2]/b = %+v", pe)
	}
}

func TestParseLiteralsAndNumbers(t *testing.T) {
	if MustParse(`"hi"`).(Literal).S != "hi" {
		t.Fatal("double-quoted literal")
	}
	if MustParse(`'hi'`).(Literal).S != "hi" {
		t.Fatal("single-quoted literal")
	}
	if MustParse("3.25").(Number).F != 3.25 {
		t.Fatal("decimal number")
	}
	if MustParse(".5").(Number).F != 0.5 {
		t.Fatal("leading-dot number")
	}
}

func TestParseVariable(t *testing.T) {
	if MustParse("$foo").(Var).Name != "foo" {
		t.Fatal("variable parse")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "a/", "a[", "a]", "a[]", "child::", "::a", "a b", "1 +", `"unterminated`,
		"foo(", "a/[1]", "$", "a @",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseXQueryComment(t *testing.T) {
	e := MustParse("(: hello (:nested:) :) /a")
	if pe := e.(PathExpr); !pe.Path.Absolute {
		t.Fatal("comment skipping broke parse")
	}
}

func TestStringRoundTrip(t *testing.T) {
	// Parse → String → Parse must be a fixpoint structurally.
	srcs := []string{
		"child::a/descendant::b",
		"/site/regions//item[child::name]",
		`a[b = "x" or c]`,
		"count(child::a) > 3.5",
		"a | b/c",
		"parent::node()/child::text()",
		"following-sibling::a[position() = last()]",
		"-1 + 2",
		"$v/a[@id]",
	}
	for _, src := range srcs {
		e1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		s1 := e1.String()
		e2, err := Parse(s1)
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", s1, src, err)
		}
		if e2.String() != s1 {
			t.Errorf("not a fixpoint: %q -> %q -> %q", src, s1, e2.String())
		}
	}
}

func TestAxisHelpers(t *testing.T) {
	if !Parent.Upward() || !Ancestor.Upward() || Child.Upward() {
		t.Fatal("Upward wrong")
	}
	for _, a := range []Axis{Parent, Ancestor, AncestorOrSelf, Preceding, PrecedingSibling} {
		if !a.Reverse() {
			t.Errorf("%s should be reverse", a)
		}
	}
	for _, a := range []Axis{Child, Descendant, Self, Following, FollowingSibling, Attribute} {
		if a.Reverse() {
			t.Errorf("%s should be forward", a)
		}
	}
	if ax, ok := AxisByName("descendant-or-self"); !ok || ax != DescendantOrSelf {
		t.Fatal("AxisByName")
	}
	if _, ok := AxisByName("sideways"); ok {
		t.Fatal("AxisByName accepted junk")
	}
}
