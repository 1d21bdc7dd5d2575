package xquery

import (
	"strings"
	"testing"

	"xmlproj/internal/tree"
	"xmlproj/internal/xpath"
)

// TestStringRendersAndReparses: the String() rendering of every AST shape
// parses back to a query with the same rendering (a fixpoint), so dumps
// are always valid FLWR syntax.
func TestStringRendersAndReparses(t *testing.T) {
	srcs := []string{
		`()`,
		`for $x in /a/b return $x/c`,
		`let $x := /a/b return count($x)`,
		`if (/a) then /b else ()`,
		`for $x in /a where $x/y return $x`,
		`<r a="1" b="{ $x }">{ /a/b }</r>`,
		`<empty/>`,
		`some $x in /a/b satisfies $x/c = 1`,
		`every $x in /a/b satisfies $x/c`,
		`count(for $x in /a return $x)`,
		`distinct-values(/a/@k)`,
		`(/a, /b, "text", 3)`,
		`for $x in /a order by $x/k descending return $x`,
		`sum(/a/b), avg(/a/b), min(/a/b), max(/a/b)`,
	}
	for _, src := range srcs {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		s1 := q1.String()
		q2, err := Parse(s1)
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", s1, src, err)
		}
		if s2 := q2.String(); s2 != s1 {
			t.Errorf("String not a fixpoint: %q -> %q -> %q", src, s1, s2)
		}
	}
}

func TestFuncQAggregates(t *testing.T) {
	doc, err := tree.ParseString(`<r><v>1</v><v>2</v><v>6</v></r>`)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		// FuncQ forms (FLWR argument forces the query-level function).
		`sum(for $v in /r/v return $v)`:                     "9",
		`avg(for $v in /r/v return $v)`:                     "3",
		`min(for $v in /r/v return $v)`:                     "1",
		`max(for $v in /r/v return $v)`:                     "6",
		`count(for $v in /r/v return $v)`:                   "3",
		`empty(for $v in /r/nosuch return $v)`:              "true",
		`exists(for $v in /r/v return $v)`:                  "true",
		`sum(for $v in /r/none return $v)`:                  "0",
		`string-join(for $v in /r/v return $v/text(), "+")`: "1+2+6",
		`data(for $v in /r/v return $v/text())`:             "1\n2\n6",
	}
	for src, want := range cases {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		s, err := NewEvaluator(doc).Eval(q)
		if err != nil {
			t.Fatalf("Eval(%q): %v", src, err)
		}
		if got := Serialize(s); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
	// Aggregates over the empty sequence (other than sum) are empty.
	q := MustParse(`avg(for $v in /r/none return $v)`)
	s, err := NewEvaluator(doc).Eval(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 0 {
		t.Fatalf("avg(()) = %v, want empty", s)
	}
}

func TestFuncQArityErrors(t *testing.T) {
	doc, _ := tree.ParseString(`<r/>`)
	for _, src := range []string{
		`count(for $v in /r return $v, for $v in /r return $v)`,
		`string-join(for $v in /r return $v)`,
	} {
		q, err := Parse(src)
		if err != nil {
			continue
		}
		if _, err := NewEvaluator(doc).Eval(q); err == nil {
			t.Errorf("Eval(%q) succeeded, want arity error", src)
		}
	}
}

func TestVisitedExposed(t *testing.T) {
	doc, _ := tree.ParseString(`<r><v>1</v></r>`)
	ev := NewEvaluator(doc)
	if _, err := ev.Eval(MustParse(`//v`)); err != nil {
		t.Fatal(err)
	}
	if ev.Visited() == 0 {
		t.Fatal("Visited not counted")
	}
}

func TestFreeVarsAllShapes(t *testing.T) {
	cases := map[string][]string{
		`count($h)`:          {"h"},
		`-$n`:                {"n"},
		`$p[$q]/a[$r]`:       {"p", "q", "r"},
		`($s)[$u] = 1 or $v`: {"s", "u", "v"},
		`/a/b`:               {},
	}
	for src, want := range cases {
		e, err := xpath.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		free := map[string]bool{}
		exprFreeVars(e, free)
		for _, v := range want {
			if !free[v] {
				t.Errorf("%q: free variable %s not found (got %v)", src, v, free)
			}
		}
		if len(free) != len(want) {
			t.Errorf("%q: free vars = %v, want %v", src, free, want)
		}
	}
}

func TestSubstSelfShapes(t *testing.T) {
	// Push-able conditions of various shapes through the rewriting.
	rewriteOK := []string{
		`for $y in /s/a return if (count($y/k) > 1) then $y/n else ()`,
		`for $y in /s/a return if (-$y/k = -1) then $y/n else ()`,
		`for $y in /s/a return if (contains($y/k, "x") and $y/m) then $y/n else ()`,
	}
	for _, src := range rewriteOK {
		q := MustParse(src)
		f, ok := RewriteForIf(q).(For)
		if !ok {
			t.Fatalf("%q: not a for after rewriting", src)
		}
		if _, isIf := f.Return.(If); isIf {
			t.Errorf("%q: condition not pushed", src)
		}
		if strings.Contains(f.In.String(), "$y") {
			t.Errorf("%q: $y leaked into in-path: %s", src, f.In)
		}
	}
	// Not push-able: $y under a nested filter predicate.
	src := `for $y in /s/a return if ($y[1]/k) then $y/n else ()`
	q := MustParse(src)
	if f, ok := RewriteForIf(q).(For); ok {
		if _, isIf := f.Return.(If); !isIf {
			t.Errorf("%q: filter-predicated variable should not be pushed", src)
		}
	}
}

func TestRewritePreservesSemantics(t *testing.T) {
	doc, err := tree.ParseString(`<s><a><k>v</k><n>one</n></a><a><k>w</k><n>two</n></a></s>`)
	if err != nil {
		t.Fatal(err)
	}
	srcs := []string{
		`for $y in /s/a return if ($y/k = "v") then $y/n/text() else ()`,
		`for $y in /s/descendant-or-self::node() return if ($y/k = "w") then $y/n/text() else ()`,
		`for $y in /s/a return if (count($y/k) > 0) then $y/n/text() else ()`,
	}
	for _, src := range srcs {
		q := MustParse(src)
		before, err := NewEvaluator(doc).Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		after, err := NewEvaluator(doc).Eval(RewriteForIf(q))
		if err != nil {
			t.Fatalf("%q rewritten fails: %v", src, err)
		}
		if Serialize(before) != Serialize(after) {
			t.Errorf("%q: rewriting changed semantics: %q vs %q",
				src, Serialize(before), Serialize(after))
		}
	}
}
