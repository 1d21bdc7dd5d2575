package xpathl

import (
	"fmt"

	"xmlproj/internal/xpath"
)

// This file implements Fig. 3's path extraction E(e, Γ, m) over XPath
// expressions, which is also §3.3's P(Exp): a predicate is E at m = 0,
// read at the predicate boundary (cond). One walk decides every path
// of every construct, for whole queries and for predicates alike.
//
// One deliberate strengthening over the paper's (elided) formal
// definition: operands of value comparisons (=, <, eq, …) are read at
// m = 1, so descendant-or-self::node() is appended to them, because
// evaluating the comparison needs the operands' string-values, i.e. their
// text subtrees. The paper relegates the per-function/per-operator
// details to its footnote 3; this choice keeps the inferred projectors
// sound (TestSoundness* exercise it).

// Binding is one Γ entry of Fig. 3: (x; for P) or (x; let P).
type Binding struct {
	For  bool
	Path *Path
}

// Scope is Γ: each variable may be bound to several paths, one per path
// extracted from its binding expression. A variable it does not bind is
// bound to the document node.
type Scope map[string][]Binding

// Extend returns g with name bound to paths.
func (g Scope) Extend(name string, isFor bool, paths []*Path) Scope {
	out := make(Scope, len(g)+1)
	for k, v := range g {
		out[k] = v
	}
	bs := make([]Binding, len(paths))
	for i, p := range paths {
		bs[i] = Binding{For: isFor, Path: p}
	}
	out[name] = bs
	return out
}

var (
	selfStep = SStep{Axis: xpath.Self, Test: xpath.NodeTestNode}
	dosStep  = SStep{Axis: xpath.DescendantOrSelf, Test: xpath.NodeTestNode}
	// selfExpr is the argument a call of no argument reads: its context.
	selfExpr = xpath.PathExpr{Path: xpath.Path{Steps: []xpath.Step{{Axis: xpath.Self, Test: xpath.NodeTestNode}}}}
)

// FuncArgAxis is the paper's F(f, i): the step to append to paths
// extracted from the i-th argument of function f. It reads f's entry in
// the function library (xpath.Func.Nodes): self::node() for a function
// that reads only its arguments' nodes, descendant-or-self::node() for one
// that reads their string-values, and for a name the library does not
// have.
func FuncArgAxis(fn string, argIdx int) SStep {
	if xpath.Lookup(fn).Nodes {
		return selfStep
	}
	return dosStep
}

// Extract is E(e, Γ, m): the paths e reads, relative to the context node
// unless absolute, with descendant-or-self::node() appended where m asks
// for string-values. It also reports whether e, read as a predicate, can
// be true when none of those paths reaches a node: then the predicate
// must not restrict (§3.3).
func Extract(e xpath.Expr, g Scope, m bool) ([]*Path, bool) {
	switch t := e.(type) {
	case xpath.Literal:
		return nil, t.S != ""
	case xpath.Number:
		// A bare number in a predicate is positional ([2]); as an or/and
		// operand its effective boolean value decides. Either way a
		// non-zero, non-NaN constant may hold.
		return nil, t.F != 0 && t.F == t.F
	case xpath.Var:
		return extractPath(xpath.PathExpr{Filter: t}, g, m)
	case xpath.Neg:
		ps, _ := Extract(t.E, g, true)
		return ps, true
	case xpath.Binary:
		switch t.Op {
		case xpath.OpOr, xpath.OpAnd, xpath.OpUnion:
			l, lfree := Extract(t.L, g, m)
			r, rfree := Extract(t.R, g, m)
			return append(l, r...), lfree || rfree
		case xpath.OpEq, xpath.OpNeq, xpath.OpLt, xpath.OpLe, xpath.OpGt, xpath.OpGe:
			// Value comparison: the operands' string-values are needed. A
			// comparison with a node-set is false when the node-set is
			// empty, and a constant operand decides nothing, so only the
			// other operands can make it hold without a path.
			l, lfree := Extract(t.L, g, true)
			r, rfree := Extract(t.R, g, true)
			return append(l, r...), lfree && !constant(t.L) || rfree && !constant(t.R)
		default: // arithmetic: its truth does not depend on structure
			l, _ := Extract(t.L, g, true)
			r, _ := Extract(t.R, g, true)
			return append(l, r...), true
		}
	case xpath.Call:
		// Line 14: the arguments' paths at m = 0 with F(f, i) appended. A
		// structural function (xpath.Func.Structural) is true exactly when
		// its argument is, and every other one may hold whatever its
		// arguments' paths reach (not, count comparisons, string tests …).
		f := xpath.Lookup(t.Name)
		args := t.Args
		if f.ReadsContext(len(args)) {
			args = []xpath.Expr{selfExpr}
		}
		var out []*Path
		free := !f.Structural
		for i, a := range args {
			ps, afree := Extract(a, g, false)
			step := FuncArgAxis(t.Name, i)
			for _, p := range ps {
				out = append(out, p.AppendStep(step))
			}
			free = free || afree
		}
		return out, free
	case xpath.PathExpr:
		return extractPath(t, g, m)
	}
	return nil, true
}

func constant(e xpath.Expr) bool {
	switch e.(type) {
	case xpath.Literal, xpath.Number:
		return true
	}
	return false
}

// extractPath is lines 8–12: a path from the context or the document
// node, which restricts, or from a filter — a variable, resolved through
// Γ, or any other expression — which does not.
func extractPath(pe xpath.PathExpr, g Scope, m bool) ([]*Path, bool) {
	rel := approximate(pe.Path, g)
	widen := func(p *Path) *Path {
		if m {
			return p.AppendStep(dosStep) // lines 8, 10
		}
		return p
	}
	var bases []*Path
	switch f := pe.Filter.(type) {
	case nil:
		return []*Path{widen(rel)}, false
	case xpath.Var:
		for _, b := range g[f.Name] {
			bases = append(bases, b.Path)
		}
		if len(bases) == 0 {
			bases = []*Path{{Absolute: true}} // a free variable: the document node
		}
	default:
		bases, _ = Extract(f, g, false)
	}
	if len(pe.FilterPreds) > 0 {
		// (F)[Exp]/Q: the filter's predicates are a condition on a self step.
		rel.Steps = append([]Step{{SStep: selfStep, Cond: cond(pe.FilterPreds, g)}}, rel.Steps...)
	}
	out := make([]*Path, len(bases))
	for i, b := range bases {
		out[i] = widen(Concat(b, rel))
	}
	return out, true
}

// approximate rewrites a location path into XPathℓ (§4.3), each step's
// predicates becoming one condition.
func approximate(p xpath.Path, g Scope) *Path {
	out := &Path{Absolute: p.Absolute}
	for i, st := range p.Steps {
		for _, s := range RewriteAxis(st.Axis, st.Test) {
			out.Steps = append(out.Steps, Step{SStep: s})
		}
		if i == 0 && p.Absolute {
			adjustAbsoluteFirst(out.Steps)
		}
		if len(st.Preds) > 0 {
			out.Steps[len(out.Steps)-1].Cond = cond(st.Preds, g)
		}
	}
	return out
}

// cond is the predicate boundary, P(Exp): the disjunction of the
// predicates' paths, each flattened into simple paths, plus self::node()
// when a predicate may hold without its paths or has none.
func cond(preds []xpath.Expr, g Scope) *Cond {
	c := &Cond{}
	for _, pr := range preds {
		ps, free := Extract(pr, g, false)
		n := 0
		for _, p := range ps {
			for _, sp := range p.flatten() {
				c.add(sp)
				n++
			}
		}
		if free || n == 0 {
			c.add(SelfNode())
		}
	}
	return c
}

// flatten turns a path into simple paths: its skeleton, and each disjunct
// of a step's condition prefixed by the skeleton up to that step. The
// document node alone, which every document has, is no path.
func (p *Path) flatten() []SimplePath {
	if len(p.Steps) == 0 {
		return nil
	}
	skeleton := SimplePath{Absolute: p.Absolute}
	var out []SimplePath
	for _, s := range p.Steps {
		skeleton.Steps = append(skeleton.Steps, s.SStep)
		if s.Cond == nil {
			continue
		}
		for _, d := range s.Cond.Disjuncts {
			sp := d.Prefix(skeleton.Steps)
			sp.Absolute = sp.Absolute || p.Absolute
			out = append(out, sp)
		}
	}
	return append([]SimplePath{skeleton}, out...)
}

// FromQuery approximates a full XPath query by one or more XPathℓ paths
// (§3.3 + §4.3): sibling/preceding/following axes are rewritten, every
// step's predicates are collapsed into one disjunctive condition via
// P(Exp), and top-level unions yield one path each. The projector
// inferred for the returned paths is sound for the original query.
func FromQuery(e xpath.Expr) ([]*Path, error) {
	switch t := e.(type) {
	case xpath.Binary:
		if t.Op != xpath.OpUnion {
			return nil, fmt.Errorf("xpathl: %s is not a query (top-level %s)", e, t.Op)
		}
		l, err := FromQuery(t.L)
		if err != nil {
			return nil, err
		}
		r, err := FromQuery(t.R)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	case xpath.PathExpr:
		if t.Filter != nil {
			return nil, fmt.Errorf("xpathl: filter expressions are not queries: %s", e)
		}
		return []*Path{approximate(t.Path, nil)}, nil
	default:
		return nil, fmt.Errorf("xpathl: %T is not a query", e)
	}
}

// adjustAbsoluteFirst fixes up the leading step of an absolute path: the
// analysis starts at the root *element* while "/" denotes the document
// node, whose children are exactly the root element and whose descendants
// are the root element and everything below it.
func adjustAbsoluteFirst(steps []Step) {
	if len(steps) == 0 {
		return
	}
	switch steps[0].Axis {
	case xpath.Child:
		steps[0].Axis = xpath.Self
	case xpath.Descendant:
		steps[0].Axis = xpath.DescendantOrSelf
	}
}

// MakeAbsolute roots a relative path at the document node: it marks the
// path absolute and applies the document-node adjustment to its first
// step. Used when a free variable is assumed bound to the document root.
func MakeAbsolute(p *Path) *Path {
	out := p.Clone()
	if !p.Absolute {
		out.Absolute = true
		adjustAbsoluteFirst(out.Steps)
	}
	return out
}
