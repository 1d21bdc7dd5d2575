package xpath

import (
	"fmt"
	"slices"
)

// number is the zero kind: a number, or nothing.
const number kind = 0

// MustParse parses a known-good expression, panicking on error. The
// external tests of this package use it too.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
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

// AttrIdx is -1 for a tree node, otherwise the index of the attribute
// among its element's.
func (r NodeRef) AttrIdx() int { return int(r.attr) }

// Names returns the library's function names, sorted.
func Names() []string {
	names := make([]string, 0, len(library))
	for n := range library {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}
