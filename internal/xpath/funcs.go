package xpath

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// kind says whether a function's result can be a number, which is what a
// predicate compares with the proximity position (positional, path.go).
// The zero kind is a number, or nothing; it is also what an unknown name
// reads as.
type kind uint8

const (
	notNumber  kind = iota + 1 // a boolean, a string or a node-set
	asArgument                 // its one argument, passed through
)

// Func is one entry of the function library: what the system knows of a
// function, declared once. The XPath evaluator, positional, the XQuery
// parser and evaluator and §3.3's extraction (xpathl.FuncArgAxis) all
// read it. A name the library does not have reads as the zero Func:
// it reads string-values, is not structural, takes no sequence and may be
// a number.
type Func struct {
	min, max int // arity; max < 0: no upper bound
	// Nodes says the function reads only its arguments' nodes, not their
	// string-values: §3.3's F(f, i) is self::node() for it and
	// descendant-or-self::node() for every other name.
	Nodes bool
	// Structural says the function is true exactly when its argument has
	// a node, so a predicate calling it may restrict a projector by the
	// argument's paths alone, without the self::node() disjunct (§3.3).
	Structural bool
	// Seq says the first argument is a sequence: XPath requires a node-set
	// there, and an XQuery FuncQ may pass any query, a FLWR too.
	Seq bool
	// QueryOnly says only XQuery can hold the result, a sequence of atomic
	// values: a call is always a FuncQ, and XPath does not know the name.
	QueryOnly bool
	kind      kind
	body      func(ctx context, a []Value) Value
}

// library holds the XPath 1.0 core functions and the XQuery functions the
// benchmark queries call. A function of zero or one argument reads the
// context node when it is given none (XPath 1.0 §4).
var library = map[string]Func{
	"last":     {Nodes: true, body: func(c context, _ []Value) Value { return float64(c.size) }},
	"position": {Nodes: true, body: func(c context, _ []Value) Value { return float64(c.pos) }},

	"name":       {max: 1, Nodes: true, kind: notNumber, body: nodeName},
	"local-name": {max: 1, Nodes: true, kind: notNumber, body: nodeName},
	"string":     {max: 1, kind: notNumber, body: of1(ToString)},
	"number":     {max: 1, body: of1(ToNumber)},
	"string-length": {max: 1, body: of1(func(v Value) float64 {
		return float64(len([]rune(ToString(v))))
	})},
	"normalize-space": {max: 1, kind: notNumber, body: of1(func(v Value) string {
		return strings.Join(strings.Fields(ToString(v)), " ")
	})},

	"concat":      {min: 2, max: -1, kind: notNumber, body: concat},
	"starts-with": {min: 2, max: 2, kind: notNumber, body: strings2(strings.HasPrefix)},
	"ends-with":   {min: 2, max: 2, kind: notNumber, body: strings2(strings.HasSuffix)}, // XPath 2.0's, for XPathMark
	"contains":    {min: 2, max: 2, kind: notNumber, body: strings2(strings.Contains)},
	"substring-before": {min: 2, max: 2, kind: notNumber, body: strings2(func(s, sep string) string {
		if i := strings.Index(s, sep); i >= 0 {
			return s[:i]
		}
		return ""
	})},
	"substring-after": {min: 2, max: 2, kind: notNumber, body: strings2(func(s, sep string) string {
		if i := strings.Index(s, sep); i >= 0 {
			return s[i+len(sep):]
		}
		return ""
	})},
	"substring": {min: 2, max: 3, kind: notNumber, body: substring},
	"translate": {min: 3, max: 3, kind: notNumber, body: translate},

	"boolean": {min: 1, max: 1, Nodes: true, Structural: true, kind: notNumber, body: of1(ToBoolean)},
	"not": {min: 1, max: 1, Nodes: true, kind: notNumber, body: of1(func(v Value) bool {
		return !ToBoolean(v)
	})},
	"true":  {kind: notNumber, body: func(context, []Value) Value { return true }},
	"false": {kind: notNumber, body: func(context, []Value) Value { return false }},

	"floor":   {min: 1, max: 1, body: of1(func(v Value) float64 { return math.Floor(ToNumber(v)) })},
	"ceiling": {min: 1, max: 1, body: of1(func(v Value) float64 { return math.Ceil(ToNumber(v)) })},
	"round":   {min: 1, max: 1, body: of1(func(v Value) float64 { return math.Round(ToNumber(v)) })},

	// Functions of a sequence.
	"count": {min: 1, max: 1, Nodes: true, Seq: true, body: of1(func(v Value) float64 {
		return float64(seqLen(v))
	})},
	"empty": {min: 1, max: 1, Nodes: true, Seq: true, kind: notNumber, body: of1(func(v Value) bool {
		return seqLen(v) == 0
	})},
	"exists": {min: 1, max: 1, Nodes: true, Structural: true, Seq: true, kind: notNumber, body: of1(func(v Value) bool {
		return seqLen(v) > 0
	})},
	"sum": {min: 1, max: 1, Seq: true, body: of1(func(v Value) float64 { return fold(v, 0, add) })},
	"avg": {min: 1, max: 1, Seq: true, body: of1(func(v Value) Value {
		return orNothing(v, fold(v, 0, add)/float64(seqLen(v)))
	})},
	"min": {min: 1, max: 1, Seq: true, body: of1(func(v Value) Value {
		return orNothing(v, fold(v, math.Inf(1), math.Min))
	})},
	"max": {min: 1, max: 1, Seq: true, body: of1(func(v Value) Value {
		return orNothing(v, fold(v, math.Inf(-1), math.Max))
	})},
	// The cardinality assertions and data pass their argument through: the
	// benchmark queries use them only as static hints.
	"zero-or-one":     {min: 1, max: 1, Nodes: true, Seq: true, kind: asArgument, body: of1(itself)},
	"exactly-one":     {min: 1, max: 1, Nodes: true, Seq: true, kind: asArgument, body: of1(itself)},
	"one-or-more":     {min: 1, max: 1, Nodes: true, Seq: true, kind: asArgument, body: of1(itself)},
	"data":            {min: 1, max: 1, Seq: true, kind: asArgument, body: of1(itself)},
	"distinct-values": {min: 1, max: 1, Seq: true, QueryOnly: true, kind: notNumber, body: of1(distinctValues)},
	"string-join":     {min: 2, max: 2, Seq: true, QueryOnly: true, kind: notNumber, body: stringJoin},
}

// ReadsContext says a call of f with n arguments reads the context node
// as its one argument (XPath 1.0 §4).
func (f Func) ReadsContext(n int) bool { return n == 0 && f.max == 1 }

// Lookup returns name's entry in the library, the zero Func for a name it
// does not have.
func Lookup(name string) Func { return library[name] }

// evalCall evaluates a call through the library: XQuery's sequence-only
// functions are unknown names here, and every other one is dispatched by
// call.
func (ev *Evaluator) evalCall(c Call, ctx context) (Value, error) {
	f, ok := library[c.Name]
	if !ok || f.QueryOnly {
		return nil, fmt.Errorf("xpath: unknown function %s()", c.Name)
	}
	return ev.call(c.Name, f, len(c.Args), ctx, func(i int) (Value, error) { return ev.eval(c.Args[i], ctx) })
}

// CallSeq applies the sequence function name to the n arguments of an
// XQuery FuncQ, which arg evaluates: the first as a Seq, the others as
// XPath values.
func (ev *Evaluator) CallSeq(name string, n int, arg func(i int) (Value, error)) (Value, error) {
	f := library[name]
	if !f.Seq {
		return nil, fmt.Errorf("xpath: %s() is not a function of a sequence", name)
	}
	return ev.call(name, f, n, context{}, arg)
}

// call is the one dispatcher: it checks the arity, evaluates the n
// arguments with arg, once each, onto the evaluator's argument stack, and
// runs f's body on them.
func (ev *Evaluator) call(name string, f Func, n int, ctx context, arg func(i int) (Value, error)) (Value, error) {
	if n < f.min || f.max >= 0 && n > f.max {
		want := fmt.Sprint(f.min)
		switch {
		case f.max < 0:
			want = "at least " + want
		case f.max > f.min:
			want += " or " + fmt.Sprint(f.max)
		}
		return nil, fmt.Errorf("xpath: %s() expects %s argument(s), got %d", name, want, n)
	}
	if ev.args == nil {
		ev.args = make([]Value, 0, 3)
	}
	base := len(ev.args)
	defer ev.popArgs(base)
	for i := range n {
		v, err := arg(i)
		if err != nil {
			return nil, err
		}
		ev.args = append(ev.args, v)
	}
	if f.ReadsContext(n) {
		ev.args = append(ev.args, NodeSet{ctx.node})
	}
	a := ev.args[base:]
	if f.Seq && f.kind != asArgument && !isSequence(a[0]) {
		// A function that reads its sequence needs a node-set in XPath;
		// one that passes it through takes any value.
		return nil, fmt.Errorf("xpath: %s() argument 1 is not a node-set", name)
	}
	return f.body(ctx, a), nil
}

// popArgs drops the arguments above base, and the references they hold.
func (ev *Evaluator) popArgs(base int) {
	clear(ev.args[base:])
	ev.args = ev.args[:base]
}

// Seq is a sequence as XQuery holds it: nodes (NodeRef) and atomic values
// in one list. XPath never makes one; it is the first argument of a FuncQ,
// and the value of a QueryOnly function.
type Seq []Value

func isSequence(v Value) bool {
	switch v.(type) {
	case NodeSet, Seq:
		return true
	}
	return false
}

// seqLen and itemString read a sequence argument, a node-set or a Seq.
func seqLen(v Value) int {
	if s, ok := v.(Seq); ok {
		return len(s)
	}
	return len(v.(NodeSet))
}

func itemString(v Value, i int) string {
	if s, ok := v.(Seq); ok {
		return ToString(s[i])
	}
	return v.(NodeSet)[i].StringValue()
}

// fold combines acc with the number of each item of v by op.
func fold(v Value, acc float64, op func(acc, f float64) float64) float64 {
	for i := range seqLen(v) {
		acc = op(acc, ToNumber(itemString(v, i)))
	}
	return acc
}

func add(a, b float64) float64 { return a + b }

// orNothing is f, or the empty sequence — the empty node-set — when v has
// no items: fn:avg, fn:min and fn:max of nothing are nothing.
func orNothing(v Value, f float64) Value {
	if seqLen(v) == 0 {
		return NodeSet(nil)
	}
	return f
}

// of1 is the body of a function of its first argument.
func of1[T any](f func(Value) T) func(context, []Value) Value {
	return func(_ context, a []Value) Value { return f(a[0]) }
}

// strings2 is the body of a function of its two arguments' strings.
func strings2[T any](f func(s, t string) T) func(context, []Value) Value {
	return func(_ context, a []Value) Value { return f(ToString(a[0]), ToString(a[1])) }
}

func itself(v Value) Value { return v }

func nodeName(_ context, a []Value) Value {
	if ns, ok := a[0].(NodeSet); ok && len(ns) > 0 {
		return ns[0].Name()
	}
	return ""
}

func concat(_ context, a []Value) Value {
	var sb strings.Builder
	for _, v := range a {
		sb.WriteString(ToString(v))
	}
	return sb.String()
}

func substring(_ context, a []Value) Value {
	start := math.Round(ToNumber(a[1]))
	end := math.Inf(1)
	if len(a) == 3 {
		end = start + math.Round(ToNumber(a[2]))
	}
	var sb strings.Builder
	for i, r := range []rune(ToString(a[0])) {
		if p := float64(i + 1); p >= start && p < end {
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

func translate(_ context, a []Value) Value {
	from, to := []rune(ToString(a[1])), []rune(ToString(a[2]))
	var sb strings.Builder
	for _, r := range ToString(a[0]) {
		switch i := slices.Index(from, r); {
		case i < 0:
			sb.WriteRune(r)
		case i < len(to):
			sb.WriteRune(to[i])
		}
	}
	return sb.String()
}

func distinctValues(v Value) Value {
	seen := map[string]bool{}
	var out Seq
	for i := range seqLen(v) {
		if s := itemString(v, i); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func stringJoin(_ context, a []Value) Value {
	parts := make([]string, seqLen(a[0]))
	for i := range parts {
		parts[i] = itemString(a[0], i)
	}
	return strings.Join(parts, ToString(a[1]))
}
