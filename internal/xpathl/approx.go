package xpathl

import (
	"fmt"

	"xmlproj/internal/xpath"
)

// This file implements §3.3: rewriting arbitrary XPath predicates into
// XPathℓ conditions via the path-extraction function P(Exp), and the
// approximation of whole queries.
//
// One deliberate strengthening over the paper's (elided) formal
// definition: operands of value comparisons (=, <, eq, …) get
// descendant-or-self::node() appended, because evaluating the comparison
// needs the operands' string-values, i.e. their text subtrees. The paper
// relegates the per-function/per-operator details to its footnote 3; this
// choice keeps the inferred projectors sound (TestSoundness* exercise it).

// FuncArgAxis is the paper's F(f, i): the step to append to paths
// extracted from the i-th argument of function f. It reads f's entry in
// the function library (xpath.Func.Nodes): self::node() for a function
// that reads only its arguments' nodes, descendant-or-self::node() for one
// that reads their string-values, and for a name the library does not
// have.
func FuncArgAxis(fn string, argIdx int) SStep {
	if xpath.Lookup(fn).Nodes {
		return SStep{Axis: xpath.Self, Test: xpath.NodeTestNode}
	}
	return SStep{Axis: xpath.DescendantOrSelf, Test: xpath.NodeTestNode}
}

// ExtractCond implements P(Exp): it approximates a full-XPath predicate
// expression by a set of simple paths (relative to the predicate's
// context node) whose disjunction soundly over-approximates the
// predicate's data needs.
func ExtractCond(e xpath.Expr) []SimplePath {
	x := &extractor{}
	paths := x.extract(e, true)
	if len(paths) == 0 {
		// A predicate with no structural content at all (e.g. [3],
		// [position() < last()]) must not restrict anything.
		paths = []SimplePath{SelfNode()}
	}
	return dedup(paths)
}

type extractor struct{}

// extract returns the simple paths of e evaluated for its effective
// boolean value (a predicate or an or/and operand). Non-structural parts
// that may be true regardless of structure — truthy constants, function
// results, variables — contribute the always-true self::node(), which
// neutralises restriction (§3.3); falsy constants contribute nothing (a
// disjunct that is never true cannot satisfy the predicate).
func (x *extractor) extract(e xpath.Expr, restricting bool) []SimplePath {
	switch t := e.(type) {
	case xpath.Literal:
		if len(t.S) > 0 {
			return []SimplePath{SelfNode()} // [..."x" or P]: always true
		}
		return nil
	case xpath.Number:
		// A bare number in a predicate is positional ([2]); as an or/and
		// operand its effective boolean value decides. Either way a
		// truthy constant must not restrict.
		if t.F != 0 && t.F == t.F { // non-zero, non-NaN
			return []SimplePath{SelfNode()}
		}
		return nil
	case xpath.Var:
		// A free variable's value cannot be analysed here; keep the
		// context node.
		return []SimplePath{SelfNode()}
	case xpath.Neg:
		return withSelf(x.valueOperand(t.E))
	case xpath.Binary:
		switch t.Op {
		case xpath.OpOr, xpath.OpAnd, xpath.OpUnion:
			return append(x.extract(t.L, restricting), x.extract(t.R, restricting)...)
		case xpath.OpEq, xpath.OpNeq, xpath.OpLt, xpath.OpLe, xpath.OpGt, xpath.OpGe:
			// Value comparison: operands' string-values are needed. The
			// comparison can only be true when its node-set operands are
			// non-empty, so restriction by the operand paths stays sound
			// and no self::node() is added.
			return append(x.valueOperand(t.L), x.valueOperand(t.R)...)
		default: // arithmetic: non-structural truth
			return withSelf(append(x.valueOperand(t.L), x.valueOperand(t.R)...))
		}
	case xpath.Call:
		var out []SimplePath
		for i, a := range t.Args {
			step := FuncArgAxis(t.Name, i)
			for _, p := range x.argOperand(a) {
				out = append(out, p.Append(step))
			}
		}
		// A structural function (xpath.Func.Structural) is true exactly
		// when its argument's paths reach a node. Everything else (not,
		// count comparisons, string tests …) keeps its paths for data needs
		// but adds self::node(), so no candidate node is pruned away
		// (§3.3).
		if !xpath.Lookup(t.Name).Structural {
			out = append(out, SelfNode())
		}
		return out
	case xpath.PathExpr:
		return x.pathPaths(t, SStep{Axis: xpath.Self, Test: xpath.NodeTestNode})
	}
	return []SimplePath{SelfNode()}
}

// argOperand extracts paths from a function argument: constants carry no
// data needs, path operands keep their skeleton (the caller appends the
// per-function F(f, i) step, which decides how much of the subtree the
// function consumes), everything else recurses.
func (x *extractor) argOperand(e xpath.Expr) []SimplePath {
	switch t := e.(type) {
	case xpath.Literal, xpath.Number:
		return nil
	case xpath.PathExpr:
		return x.pathPaths(t, SStep{Axis: xpath.Self, Test: xpath.NodeTestNode})
	}
	return x.extract(e, false)
}

// valueOperand extracts paths from a comparison/arithmetic operand. A
// direct path operand gets descendant-or-self::node() appended (its
// string-value is needed); constants carry no data needs (unlike in
// boolean position, where a truthy constant must block restriction);
// other shapes recurse normally (their own F-steps already account for
// data needs).
func (x *extractor) valueOperand(e xpath.Expr) []SimplePath {
	switch t := e.(type) {
	case xpath.Literal, xpath.Number:
		return nil
	case xpath.PathExpr:
		return x.pathPaths(t, SStep{Axis: xpath.DescendantOrSelf, Test: xpath.NodeTestNode})
	}
	return x.extract(e, false)
}

// pathPaths flattens a (possibly predicated, possibly absolute) path
// expression into simple paths: the skeleton with `final` appended, plus
// one path per nested predicate, prefixed by the skeleton up to the step
// carrying it.
func (x *extractor) pathPaths(pe xpath.PathExpr, final SStep) []SimplePath {
	if pe.Filter != nil {
		// $x/path or (expr)/path inside a plain XPath predicate: the
		// XQuery layer resolves variables before approximation; here we
		// conservatively keep the context node and any nested structure.
		out := []SimplePath{SelfNode()}
		for _, pr := range pe.FilterPreds {
			out = append(out, x.extract(pr, false)...)
		}
		for _, st := range pe.Path.Steps {
			for _, pr := range st.Preds {
				out = append(out, x.extract(pr, false)...)
			}
		}
		return out
	}
	var skeleton []SStep
	out := []SimplePath{}
	for _, st := range pe.Path.Steps {
		first := len(skeleton) == 0
		skeleton = append(skeleton, RewriteAxis(st.Axis, st.Test)...)
		if first && pe.Path.Absolute {
			adjustAbsoluteFirst(skeleton)
		}
		for _, pr := range st.Preds {
			prefix := make([]SStep, len(skeleton))
			copy(prefix, skeleton)
			for _, np := range x.extract(pr, false) {
				p := np.Prefix(prefix)
				p.Absolute = p.Absolute || pe.Path.Absolute && !np.Absolute
				out = append(out, p)
			}
		}
	}
	main := SimplePath{Absolute: pe.Path.Absolute, Steps: skeleton}
	if len(skeleton) == 0 {
		main = SelfNode()
		main.Absolute = pe.Path.Absolute
	}
	out = append([]SimplePath{main.Append(final)}, out...)
	return out
}

func withSelf(paths []SimplePath) []SimplePath {
	return append(paths, SelfNode())
}

func dedup(paths []SimplePath) []SimplePath {
	seen := map[string]bool{}
	out := paths[:0]
	for _, p := range paths {
		k := p.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, p)
	}
	return out
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
		return []*Path{approximatePath(t.Path)}, nil
	default:
		return nil, fmt.Errorf("xpathl: %T is not a query", e)
	}
}

// MustFromQuery is FromQuery for known-good queries.
func MustFromQuery(e xpath.Expr) []*Path {
	ps, err := FromQuery(e)
	if err != nil {
		panic(err)
	}
	return ps
}

// adjustAbsoluteFirst fixes up the leading step of an absolute path: the
// analysis starts at the root *element* while "/" denotes the document
// node, whose children are exactly the root element and whose descendants
// are the root element and everything below it.
func adjustAbsoluteFirst(steps []SStep) {
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
	if p.Absolute {
		return p.Clone()
	}
	out := p.Clone()
	out.Absolute = true
	if len(out.Steps) > 0 {
		switch out.Steps[0].Axis {
		case xpath.Child:
			out.Steps[0].Axis = xpath.Self
		case xpath.Descendant:
			out.Steps[0].Axis = xpath.DescendantOrSelf
		}
	}
	return out
}

func approximatePath(p xpath.Path) *Path {
	out := &Path{Absolute: p.Absolute}
	for _, st := range p.Steps {
		steps := RewriteAxis(st.Axis, st.Test)
		if p.Absolute && len(out.Steps) == 0 {
			adjustAbsoluteFirst(steps)
		}
		for i, s := range steps {
			ls := Step{SStep: s}
			if i == len(steps)-1 && len(st.Preds) > 0 {
				cond := &Cond{}
				for _, pr := range st.Preds {
					for _, sp := range ExtractCond(pr) {
						cond.add(sp)
					}
				}
				ls.Cond = cond
			}
			out.Steps = append(out.Steps, ls)
		}
	}
	return out
}
