package xpath

import (
	"math"
	"testing"

	"xmlproj/internal/tree"
)

func fdoc(t *testing.T) *tree.Document {
	t.Helper()
	d, err := tree.ParseString(`<r><a>5</a><a>7</a><b lang="en">hello world</b></r>`)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFuncNameAndLocalName(t *testing.T) {
	doc := fdoc(t)
	cases := map[string]Value{
		`name(/r/a)`:       "a",
		`local-name(/r/b)`: "b",
		`name(/r/nope)`:    "",
		`name(/r/b/@lang)`: "lang",
	}
	for src, want := range cases {
		if got := evalVal(t, doc, src); got != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
	// Context-node forms.
	ev := NewEvaluator(doc)
	b := doc.Root.Children[2]
	v, err := ev.EvalWith(MustParse("name()"), ElemRef(b))
	if err != nil || v != "b" {
		t.Fatalf("name() with context = %v, %v", v, err)
	}
}

func TestFuncStringContextForms(t *testing.T) {
	doc := fdoc(t)
	ev := NewEvaluator(doc)
	b := doc.Root.Children[2]
	for src, want := range map[string]Value{
		"string()":          "hello world",
		"string-length()":   11.0,
		"normalize-space()": "hello world",
		"number(../a[1])":   5.0,
	} {
		v, err := ev.EvalWith(MustParse(src), ElemRef(b))
		if err != nil || v != want {
			t.Errorf("%s = %v (%v), want %v", src, v, err, want)
		}
	}
}

func TestFuncSubstringEdgeCases(t *testing.T) {
	doc := fdoc(t)
	cases := map[string]string{
		// The W3C specification examples.
		`substring("12345", 1.5, 2.6)`:   "234",
		`substring("12345", 0, 3)`:       "12",
		`substring("12345", 0 div 0, 3)`: "",
		`substring("12345", -42)`:        "12345",
	}
	for src, want := range cases {
		if got := evalVal(t, doc, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestFuncRoundHalf(t *testing.T) {
	doc := fdoc(t)
	if got := evalVal(t, doc, "round(2.5)").(float64); got != 3 {
		t.Errorf("round(2.5) = %v", got)
	}
	if got := evalVal(t, doc, "round(-2.5)").(float64); got != -3 && got != -2 {
		// math.Round gives -3; XPath 1.0 wants -2; either is acceptable for
		// the benchmarks, but it must be one of them.
		t.Errorf("round(-2.5) = %v", got)
	}
}

func TestFuncAggregatesOnEmpty(t *testing.T) {
	doc := fdoc(t)
	if got := evalVal(t, doc, "sum(/r/none)").(float64); got != 0 {
		t.Errorf("sum(empty) = %v", got)
	}
	for _, src := range []string{"avg(/r/none)", "min(/r/none)", "max(/r/none)"} {
		if got := evalVal(t, doc, src).(float64); !math.IsNaN(got) {
			t.Errorf("%s = %v, want NaN", src, got)
		}
	}
}

func TestFuncArityErrors(t *testing.T) {
	doc := fdoc(t)
	ev := NewEvaluator(doc)
	bad := []string{
		"last(1)", "position(1)", "concat('a')", "starts-with('a')",
		"contains('a')", "substring('a')", "translate('a','b')",
		"boolean()", "not()", "true(1)", "false(1)", "floor()", "ceiling()",
		"round()", "sum()", "id('x')",
	}
	for _, src := range bad {
		if _, err := ev.Eval(MustParse(src)); err == nil {
			t.Errorf("Eval(%q) succeeded, want error", src)
		}
	}
}

// TestFunctionKinds holds the functions table to what evalCall returns:
// positional reads a function's kind there to decide whether a predicate
// can be a position, and a wrong entry would fuse a step that must not be.
func TestFunctionKinds(t *testing.T) {
	doc := fdoc(t)
	ev := NewEvaluator(doc)
	args := []string{"", "/r/a", "'ab', 'b'", "'ab', 'a', 'b'"}
	for name, k := range functions {
		if name == "id" || name == "idref" {
			continue // listed to be refused by name
		}
		var v Value
		err := error(nil)
		for _, a := range args {
			if v, err = ev.Eval(MustParse(name + "(" + a + ")")); err == nil {
				break
			}
		}
		if err != nil {
			t.Errorf("%s(): no argument list evaluates: %v", name, err)
			continue
		}
		_, isNumber := v.(float64)
		if k == notNumber && isNumber || k == number && !isNumber {
			t.Errorf("%s() returned %T, listed as kind %d", name, v, k)
		}
	}
	if _, err := ev.Eval(MustParse("nosuch()")); err == nil {
		t.Error("an unlisted function evaluated")
	}
}

func TestComparisonsAllOperators(t *testing.T) {
	doc := fdoc(t)
	cases := map[string]bool{
		"1 < 2": true, "2 <= 2": true, "3 > 2": true, "2 >= 3": false,
		"1 != 2": true, "1 = 1": true,
		// flip: node-set on the right of a relational operator.
		"6 > /r/a":    true,  // 6 > 5
		"4 > /r/a":    false, // 4 > neither 5 nor 7
		"6 < /r/a":    true,  // 6 < 7
		"5 >= /r/a":   true,
		"5 <= /r/a":   true,
		`"5" = /r/a`:  true,
		`"6" != /r/a`: true,
		// booleans compared with numbers and strings.
		"true() = 1":   true,
		"false() = 0":  true,
		"true() > 0":   true,
		`true() = "x"`: true,
		`false() = ""`: true,
		"not(1 = 2)":   true,
	}
	for src, want := range cases {
		if got := evalVal(t, doc, src); got != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestNumberFormatting(t *testing.T) {
	cases := map[float64]string{
		1:        "1",
		-1:       "-1",
		1.5:      "1.5",
		0:        "0",
		1e6:      "1000000",
		0.000001: "1e-06",
	}
	for f, want := range cases {
		if got := FormatNumber(f); got != want {
			t.Errorf("FormatNumber(%v) = %q, want %q", f, got, want)
		}
	}
	if FormatNumber(math.NaN()) != "NaN" {
		t.Error("NaN formatting")
	}
	if FormatNumber(math.Inf(1)) != "Infinity" || FormatNumber(math.Inf(-1)) != "-Infinity" {
		t.Error("Infinity formatting")
	}
}

func TestValueConversions(t *testing.T) {
	if ToNumber(true) != 1 || ToNumber(false) != 0 {
		t.Error("bool to number")
	}
	if !math.IsNaN(ToNumber(struct{}{})) {
		t.Error("junk to number should be NaN")
	}
	if ToString(3.0) != "3" || ToString(false) != "false" {
		t.Error("to string")
	}
	if ToBoolean(math.NaN()) || !ToBoolean(1.0) || ToBoolean("") || !ToBoolean("x") {
		t.Error("to boolean")
	}
	if ToString(NodeSet{}) != "" || ToBoolean(NodeSet{}) {
		t.Error("empty node-set conversions")
	}
}

func TestExprStringRendering(t *testing.T) {
	// Every operator and shape renders to re-parseable XPath.
	srcs := []string{
		"1 + 2 - 3 * 4 div 5 mod 6",
		"a | b | c",
		"-a",
		`concat("x", 'y')`,
		"a < b and c > d or e <= f and g >= h",
		"a != b",
		"$v[1]/x",
		"(a)[2]",
		"processing-instruction()",
		"comment()",
		"following::a[last()]",
	}
	for _, src := range srcs {
		e1 := MustParse(src)
		s1 := e1.String()
		e2, err := Parse(s1)
		if err != nil {
			t.Fatalf("render of %q = %q does not re-parse: %v", src, s1, err)
		}
		if s2 := e2.String(); s2 != s1 {
			t.Errorf("not a fixpoint: %q -> %q -> %q", src, s1, s2)
		}
	}
}

func TestCommentAndPINeverMatch(t *testing.T) {
	doc := fdoc(t)
	if got := sel(t, doc, "//comment()"); len(got) != 0 {
		t.Errorf("comment() = %v", got)
	}
	if got := sel(t, doc, "//processing-instruction()"); len(got) != 0 {
		t.Errorf("processing-instruction() = %v", got)
	}
}
