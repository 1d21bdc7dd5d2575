package xpath

import (
	"fmt"
	"math"

	"xmlproj/internal/tree"
)

// Evaluator executes XPath expressions over a document. It is a
// main-memory engine over the loaded tree, and it leans on what the
// loader guarantees: node IDs are document order and a subtree is an ID
// interval, so a step keeps its output ordered instead of re-sorting it
// (path.go). Its running time and allocation still scale with the nodes
// the navigation reaches — the quantity that type-based projection
// shrinks.
//
// Every node an expression meets must belong to Doc or be numbered in
// document order above every ID of Doc's, as the XQuery evaluator numbers
// the elements it constructs. An Evaluator is not safe for concurrent
// use.
type Evaluator struct {
	Doc *tree.Document
	// Vars provides values for $variables (the XQuery evaluator binds
	// FLWR variables here).
	Vars map[string]Value
	// Visited counts the nodes evaluation examined: each node an axis
	// walk tested. It is a deterministic work metric used by the benchmark
	// harness alongside wall time.
	Visited int64

	// free holds step buffers between uses.
	free []NodeSet
}

// NewEvaluator returns an evaluator over doc.
func NewEvaluator(doc *tree.Document) *Evaluator {
	return &Evaluator{Doc: doc, Vars: map[string]Value{}}
}

type context struct {
	node NodeRef
	pos  int // proximity position, 1-based
	size int // context size
}

// Eval evaluates an expression with the document root element as context
// node.
func (ev *Evaluator) Eval(e Expr) (Value, error) {
	return ev.eval(e, context{node: ElemRef(ev.Doc.Root), pos: 1, size: 1})
}

// EvalWith evaluates an expression with the given context node.
func (ev *Evaluator) EvalWith(e Expr, node NodeRef) (Value, error) {
	return ev.eval(e, context{node: node, pos: 1, size: 1})
}

// Select evaluates an expression that must produce a node-set.
func (ev *Evaluator) Select(e Expr) (NodeSet, error) {
	v, err := ev.Eval(e)
	if err != nil {
		return nil, err
	}
	ns, ok := v.(NodeSet)
	if !ok {
		return nil, fmt.Errorf("xpath: expression %s returned %T, not a node-set", e, v)
	}
	return ns, nil
}

func (ev *Evaluator) eval(e Expr, ctx context) (Value, error) {
	switch x := e.(type) {
	case Literal:
		return x.S, nil
	case Number:
		return x.F, nil
	case Var:
		v, ok := ev.Vars[x.Name]
		if !ok {
			return nil, fmt.Errorf("xpath: unbound variable $%s", x.Name)
		}
		return v, nil
	case Neg:
		v, err := ev.eval(x.E, ctx)
		if err != nil {
			return nil, err
		}
		return -ToNumber(v), nil
	case Call:
		return ev.evalCall(x, ctx)
	case Binary:
		return ev.evalBinary(x, ctx)
	case PathExpr:
		return ev.evalPathExpr(x, ctx)
	}
	return nil, fmt.Errorf("xpath: cannot evaluate %T", e)
}

func (ev *Evaluator) evalBinary(b Binary, ctx context) (Value, error) {
	switch b.Op {
	case OpOr, OpAnd:
		l, err := ev.eval(b.L, ctx)
		if err != nil {
			return nil, err
		}
		lb := ToBoolean(l)
		if b.Op == OpOr && lb {
			return true, nil
		}
		if b.Op == OpAnd && !lb {
			return false, nil
		}
		r, err := ev.eval(b.R, ctx)
		if err != nil {
			return nil, err
		}
		return ToBoolean(r), nil
	case OpUnion:
		l, err := ev.eval(b.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := ev.eval(b.R, ctx)
		if err != nil {
			return nil, err
		}
		ln, ok1 := l.(NodeSet)
		rn, ok2 := r.(NodeSet)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("xpath: union of non node-sets")
		}
		return append(append(make(NodeSet, 0, len(ln)+len(rn)), ln...), rn...).SortDoc(), nil
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		l, err := ev.eval(b.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := ev.eval(b.R, ctx)
		if err != nil {
			return nil, err
		}
		lf, rf := ToNumber(l), ToNumber(r)
		switch b.Op {
		case OpAdd:
			return lf + rf, nil
		case OpSub:
			return lf - rf, nil
		case OpMul:
			return lf * rf, nil
		case OpDiv:
			return lf / rf, nil
		default:
			return math.Mod(lf, rf), nil
		}
	default: // comparisons
		l, err := ev.eval(b.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := ev.eval(b.R, ctx)
		if err != nil {
			return nil, err
		}
		return compare(b.Op, l, r), nil
	}
}

// compare implements the XPath 1.0 comparison semantics, including the
// existential semantics over node-sets.
func compare(op Op, l, r Value) bool {
	ln, lIsNS := l.(NodeSet)
	rn, rIsNS := r.(NodeSet)
	switch {
	case lIsNS && rIsNS:
		for _, a := range ln {
			for _, b := range rn {
				if atomicCompare(op, a.StringValue(), b.StringValue()) {
					return true
				}
			}
		}
		return false
	case lIsNS:
		if rb, ok := r.(bool); ok {
			return boolCmp(op, ToBoolean(l), rb)
		}
		for _, a := range ln {
			if compareAtomNS(op, a.StringValue(), r) {
				return true
			}
		}
		return false
	case rIsNS:
		if lb, ok := l.(bool); ok {
			return boolCmp(op, lb, ToBoolean(r))
		}
		for _, b := range rn {
			if compareAtomNS(flip(op), b.StringValue(), l) {
				return true
			}
		}
		return false
	default:
		if op == OpEq || op == OpNeq {
			if _, ok := l.(bool); ok {
				return boolCmp(op, ToBoolean(l), ToBoolean(r))
			}
			if _, ok := r.(bool); ok {
				return boolCmp(op, ToBoolean(l), ToBoolean(r))
			}
			if _, ok := l.(float64); ok {
				return numCmp(op, ToNumber(l), ToNumber(r))
			}
			if _, ok := r.(float64); ok {
				return numCmp(op, ToNumber(l), ToNumber(r))
			}
			return strCmp(op, ToString(l), ToString(r))
		}
		return numCmp(op, ToNumber(l), ToNumber(r))
	}
}

// compareAtomNS compares a node string-value (left side) to a non-node-set
// value.
func compareAtomNS(op Op, sv string, v Value) bool {
	switch x := v.(type) {
	case float64:
		return numCmp(op, ToNumber(sv), x)
	case string:
		return atomicCompare(op, sv, x)
	}
	return false
}

// atomicCompare compares two strings under op: string equality for =/!=,
// numeric comparison otherwise.
func atomicCompare(op Op, a, b string) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNeq:
		return a != b
	default:
		return numCmp(op, ToNumber(a), ToNumber(b))
	}
}

func flip(op Op) Op {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}

func boolCmp(op Op, a, b bool) bool {
	if op == OpNeq {
		return a != b
	}
	if op == OpEq {
		return a == b
	}
	return numCmp(op, ToNumber(a), ToNumber(b))
}

func numCmp(op Op, a, b float64) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNeq:
		return a != b
	case OpLt:
		return a < b
	case OpLe:
		return a <= b
	case OpGt:
		return a > b
	case OpGe:
		return a >= b
	}
	return false
}

func strCmp(op Op, a, b string) bool {
	if op == OpNeq {
		return a != b
	}
	return a == b
}
