package xquery

import (
	"testing"

	"xmlproj/internal/testkit"
	"xmlproj/internal/tree"
	"xmlproj/internal/xpath"
)

// TestSequenceFunctionsAgree: every function of a sequence gives one answer
// whichever evaluator runs it. f(P) is an XPath call (a FuncQ when only
// XQuery can hold f's result), f(for $v in P return $v) is a FuncQ; over
// an empty and a non-empty P both have the same item count and the same
// serialisation. avg, min and max of nothing are nothing on both sides,
// and one-or-more takes a FLWR argument like the other cardinality
// functions.
func TestSequenceFunctionsAgree(t *testing.T) {
	doc, err := tree.ParseString(`<r><v>1</v><v>2</v><v>6</v><v>2</v></r>`)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, name := range testkit.Functions {
		f := xpath.Lookup(name)
		if !f.Seq {
			continue
		}
		rest := ""
		if name == "string-join" {
			rest = `, "+"`
		}
		for _, p := range []string{"/r/v", "/r/none"} {
			direct := name + "(" + p + rest + ")"
			overFLWR := name + "(for $v in " + p + " return $v" + rest + ")"
			a, err := Parse(direct)
			if err != nil {
				t.Fatalf("%s: %v", direct, err)
			}
			b, err := Parse(overFLWR)
			if err != nil {
				t.Fatalf("%s: %v", overFLWR, err)
			}
			if _, isCall := a.(Expr); isCall == f.QueryOnly {
				t.Errorf("%s parses as %T", direct, a)
			}
			if _, isFuncQ := b.(FuncQ); !isFuncQ {
				t.Errorf("%s parses as %T", overFLWR, b)
			}
			sa, err := NewEvaluator(doc).Eval(a)
			if err != nil {
				t.Fatalf("%s: %v", direct, err)
			}
			sb, err := NewEvaluator(doc).Eval(b)
			if err != nil {
				t.Fatalf("%s: %v", overFLWR, err)
			}
			if len(sa) != len(sb) || Serialize(sa) != Serialize(sb) {
				t.Errorf("%s = %d item(s) %q, %s = %d item(s) %q", direct, len(sa), Serialize(sa), overFLWR, len(sb), Serialize(sb))
			}
			if p == "/r/none" && (name == "avg" || name == "min" || name == "max") && len(sa) != 0 {
				t.Errorf("%s = %q, want the empty sequence", direct, Serialize(sa))
			}
			rows++
		}
	}
	if rows != 2*13 {
		t.Errorf("%d rows, want 2 for each of the 13 functions of a sequence", rows)
	}
}
