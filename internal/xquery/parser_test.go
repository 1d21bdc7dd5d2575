package xquery

import (
	"testing"

	"xmlproj/internal/xpath"
)

func TestParseSimpleFor(t *testing.T) {
	q := MustParse(`for $b in /site/people/person return $b/name`)
	f, ok := q.(For)
	if !ok || f.Var != "b" {
		t.Fatalf("parse = %#v", q)
	}
	if _, ok := f.In.(Expr); !ok {
		t.Fatalf("In = %#v", f.In)
	}
	ret := f.Return.(Expr)
	pe := ret.E.(xpath.PathExpr)
	if v, ok := pe.Filter.(xpath.Var); !ok || v.Name != "b" {
		t.Fatalf("return not rooted at $b: %#v", pe)
	}
}

func TestParseLet(t *testing.T) {
	q := MustParse(`let $x := /a/b return count($x)`)
	l, ok := q.(Let)
	if !ok || l.Var != "x" {
		t.Fatalf("parse = %#v", q)
	}
	if _, ok := l.Return.(Expr); !ok {
		t.Fatalf("count($x) should parse as an XPath expression: %#v", l.Return)
	}
}

func TestParseWhereDesugarsToIf(t *testing.T) {
	q := MustParse(`for $b in /a/b where $b/c = 3 return $b/d`)
	f := q.(For)
	iff, ok := f.Return.(If)
	if !ok {
		t.Fatalf("where not desugared: %#v", f.Return)
	}
	if _, ok := iff.Else.(Empty); !ok {
		t.Fatalf("else branch should be (): %#v", iff.Else)
	}
}

func TestParseMultipleBindings(t *testing.T) {
	q := MustParse(`for $a in /x/a, $b in $a/b return $b`)
	f := q.(For)
	if f.Var != "a" {
		t.Fatalf("outer var = %s", f.Var)
	}
	inner, ok := f.Return.(For)
	if !ok || inner.Var != "b" {
		t.Fatalf("multiple bindings not nested: %#v", f.Return)
	}
}

func TestParseMixedForLet(t *testing.T) {
	q := MustParse(`for $p in /s/p let $a := $p/x return count($a)`)
	f := q.(For)
	l, ok := f.Return.(Let)
	if !ok || l.Var != "a" {
		t.Fatalf("for/let chain wrong: %#v", f.Return)
	}
}

func TestParseIf(t *testing.T) {
	q := MustParse(`if (/a/b) then /a/c else ()`)
	iff := q.(If)
	if _, ok := iff.Else.(Empty); !ok {
		t.Fatalf("else = %#v", iff.Else)
	}
}

func TestParseElementConstructor(t *testing.T) {
	q := MustParse(`<result>{ /a/b }</result>`)
	el, ok := q.(Element)
	if !ok || el.Tag != "result" {
		t.Fatalf("parse = %#v", q)
	}
	if _, ok := el.Body.(Expr); !ok {
		t.Fatalf("body = %#v", el.Body)
	}
}

func TestParseElementWithAttrs(t *testing.T) {
	q := MustParse(`<item name="fixed" value="{ $b/x }"/>`)
	el := q.(Element)
	if len(el.Attrs) != 2 {
		t.Fatalf("attrs = %#v", el.Attrs)
	}
	if el.Attrs[0].Literal != "fixed" || el.Attrs[0].Expr != nil {
		t.Fatalf("literal attr wrong: %#v", el.Attrs[0])
	}
	if el.Attrs[1].Expr == nil {
		t.Fatalf("computed attr wrong: %#v", el.Attrs[1])
	}
	if el.Body != nil {
		t.Fatalf("self-closing constructor has body: %#v", el.Body)
	}
}

func TestParseNestedElements(t *testing.T) {
	q := MustParse(`<out><name>{ $p/name/text() }</name><count>{ count($p/watch) }</count></out>`)
	el := q.(Element)
	seq, ok := el.Body.(Sequence)
	if !ok || len(seq.Items) != 2 {
		t.Fatalf("body = %#v", el.Body)
	}
	if seq.Items[0].(Element).Tag != "name" || seq.Items[1].(Element).Tag != "count" {
		t.Fatalf("nested tags wrong")
	}
}

func TestParseElementWithLiteralText(t *testing.T) {
	q := MustParse(`<p>hello { $x } world</p>`)
	el := q.(Element)
	seq := el.Body.(Sequence)
	if len(seq.Items) != 3 {
		t.Fatalf("body = %#v", seq)
	}
	if seq.Items[0].(Text).S != "hello " {
		t.Fatalf("text = %#v", seq.Items[0])
	}
}

func TestParseSequence(t *testing.T) {
	q := MustParse(`/a/b, /a/c`)
	seq, ok := q.(Sequence)
	if !ok || len(seq.Items) != 2 {
		t.Fatalf("parse = %#v", q)
	}
}

func TestParseEmptySequence(t *testing.T) {
	if _, ok := MustParse(`()`).(Empty); !ok {
		t.Fatal("() should parse to Empty")
	}
}

func TestParseCountOverFLWR(t *testing.T) {
	// XMark Q5 shape.
	q := MustParse(`count(for $i in /site/closed_auctions/closed_auction where $i/price >= 40 return $i/price)`)
	fq, ok := q.(FuncQ)
	if !ok || fq.Name != "count" {
		t.Fatalf("parse = %#v", q)
	}
	if _, ok := fq.Args[0].(For); !ok {
		t.Fatalf("arg = %#v", fq.Args[0])
	}
}

func TestParseAggregateOverPathStaysXPath(t *testing.T) {
	// XMark Q3 shape: the aggregate participates in arithmetic, so it must
	// parse at the XPath level.
	q := MustParse(`for $b in /s/a where zero-or-one($b/x) * 2 <= $b/y return $b`)
	f := q.(For)
	iff := f.Return.(If)
	if _, ok := iff.Cond.(Expr); !ok {
		t.Fatalf("cond = %#v", iff.Cond)
	}
}

func TestParseQuantified(t *testing.T) {
	// XMark Q4 shape.
	q := MustParse(`for $b in /s/a where some $pr in $b/p satisfies $pr/text() > 20 return $b/x`)
	f := q.(For)
	iff := f.Return.(If)
	qt, ok := iff.Cond.(Quantified)
	if !ok || qt.Var != "pr" || qt.Every {
		t.Fatalf("cond = %#v", iff.Cond)
	}
}

func TestParseDistinctValues(t *testing.T) {
	q := MustParse(`for $i in distinct-values(/s/p/@cat) return $i`)
	f := q.(For)
	fq, ok := f.In.(FuncQ)
	if !ok || fq.Name != "distinct-values" {
		t.Fatalf("In = %#v", f.In)
	}
}

func TestParseOrderBy(t *testing.T) {
	// XMark Q19 shape.
	q := MustParse(`for $b in /site/regions//item let $k := $b/name/text() order by zero-or-one($b/name/text()) ascending return <item name="{$k}">{ $b/location/text() }</item>`)
	f := q.(For)
	l := f.Return.(Let)
	ob, ok := l.Return.(OrderBy)
	if !ok || len(ob.Keys) != 1 || ob.Descending {
		t.Fatalf("order by wrong: %#v", l.Return)
	}
	if _, ok := ob.Body.(Element); !ok {
		t.Fatalf("order-by body = %#v", ob.Body)
	}
}

func TestParseParenthesisedFLWR(t *testing.T) {
	q := MustParse(`(for $x in /a/b return $x, /a/c)`)
	seq, ok := q.(Sequence)
	if !ok || len(seq.Items) != 2 {
		t.Fatalf("parse = %#v", q)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"", "for $x in", "for x in /a return $x", "let $x = 1 return $x",
		"if /a then 1 else 2", "<a>{", "<a></b>", "for $x in /a where return $x",
		"/a/b,",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseCommentsSkipped(t *testing.T) {
	q := MustParse(`(: XMark Q1 :) for $b in /site/people/person return $b/name`)
	if _, ok := q.(For); !ok {
		t.Fatalf("parse = %#v", q)
	}
}

// MustParse parses a known-good query, panicking on error.
func MustParse(src string) Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}
