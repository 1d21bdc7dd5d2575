package xquery

import (
	"xmlproj/internal/xpath"
	"xmlproj/internal/xpathl"
)

// This file implements the Fig. 3 path-extraction function E(q, Γ, m) over
// the FLWR core and the §5 for/if rewriting heuristic; embedded XPath
// expressions are read by xpathl.Extract, the same E, with this layer's
// Γ. The extracted XPathℓ paths are the query's data needs; their union
// projector (core.Infer) is a sound projector for the whole query.

// Extract computes the data-need paths of a top-level query:
// E(q, ∅, 1). Free variables are treated as bound to the document root.
func Extract(q Query) []*xpathl.Path {
	return dedupPaths(extract(q, nil, true))
}

// forPaths returns {P | (x; for P) ∈ Γ}.
func forPaths(g xpathl.Scope) []*xpathl.Path {
	var out []*xpathl.Path
	for _, bs := range g {
		for _, b := range bs {
			if b.For {
				out = append(out, b.Path)
			}
		}
	}
	return out
}

// allPaths returns {P | (x; − P) ∈ Γ}.
func allPaths(g xpathl.Scope) []*xpathl.Path {
	var out []*xpathl.Path
	for _, bs := range g {
		for _, b := range bs {
			out = append(out, b.Path)
		}
	}
	return out
}

func extract(q Query, g xpathl.Scope, m bool) []*xpathl.Path {
	switch t := q.(type) {
	case Empty, Text, nil:
		return nil // lines 1; literal text has no data needs
	case Sequence:
		var out []*xpathl.Path
		for _, it := range t.Items {
			out = append(out, extract(it, g, m)...)
		}
		return out // line 4
	case Element:
		out := forPaths(g) // line 5
		for _, a := range t.Attrs {
			if a.Expr != nil {
				out = append(out, extract(a.Expr, g, true)...)
			}
		}
		out = append(out, extract(t.Body, g, true)...)
		return out
	case For:
		inPaths := extract(t.In, g, false) // line 16
		g2 := g.Extend(t.Var, true, inPaths)
		return append(inPaths, extract(t.Return, g2, m)...)
	case Let:
		valPaths := extract(t.Val, g, false) // line 17
		g2 := g.Extend(t.Var, false, valPaths)
		return append(valPaths, extract(t.Return, g2, m)...)
	case If:
		// Line 15: condition with m=0, branches with m=1, plus every
		// bound path.
		out := extract(t.Cond, g, false)
		out = append(out, extract(t.Then, g, true)...)
		out = append(out, extract(t.Else, g, true)...)
		out = append(out, allPaths(g)...)
		return out
	case OrderBy:
		var out []*xpathl.Path
		for _, k := range t.Keys {
			out = append(out, extractExpr(k, g, true)...)
		}
		return append(out, extract(t.Body, g, m)...)
	case Quantified:
		inPaths := extract(t.In, g, false)
		g2 := g.Extend(t.Var, true, inPaths)
		return append(inPaths, extract(t.Sat, g2, false)...)
	case FuncQ:
		// Line 14 lifted to sequence functions.
		var out []*xpathl.Path
		for i, a := range t.Args {
			step := xpathl.FuncArgAxis(t.Name, i)
			for _, p := range extract(a, g, false) {
				out = append(out, p.AppendStep(step))
			}
		}
		return out
	case Expr:
		return extractExpr(t.E, g, m)
	}
	return nil
}

// extractExpr is lines 2–3 and 6–14: xpathl.Extract over an embedded XPath
// expression, its paths rooted at the document node (a relative top-level
// path is read as the paper's /P form). Line 2, a constant at m = 1,
// adds only paths that line 16 already emitted, so a constant yields none.
func extractExpr(e xpath.Expr, g xpathl.Scope, m bool) []*xpathl.Path {
	ps, _ := xpathl.Extract(e, g, m)
	for i, p := range ps {
		ps[i] = xpathl.MakeAbsolute(p)
	}
	return ps
}

func dedupPaths(paths []*xpathl.Path) []*xpathl.Path {
	seen := map[string]bool{}
	var out []*xpathl.Path
	for _, p := range paths {
		if len(p.Steps) == 0 {
			continue // the document node alone: the root is always kept
		}
		k := p.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, p)
	}
	return out
}

// RewriteForIf applies the §5 heuristic: a for over a path whose body is
// `if C($x) then q else ()` — with C referring only to $x and using no
// positional functions — becomes a for over the path filtered by
// [C(self::node())]. The rewriting preserves semantics and lets the
// extractor see the condition, restoring pruning that path-only analyses
// lose.
func RewriteForIf(q Query) Query {
	switch t := q.(type) {
	case Sequence:
		items := make([]Query, len(t.Items))
		for i, it := range t.Items {
			items[i] = RewriteForIf(it)
		}
		return Sequence{Items: items}
	case Element:
		t.Body = RewriteForIf(t.Body)
		return t
	case Let:
		t.Val = RewriteForIf(t.Val)
		t.Return = RewriteForIf(t.Return)
		return t
	case If:
		t.Cond = RewriteForIf(t.Cond)
		t.Then = RewriteForIf(t.Then)
		t.Else = RewriteForIf(t.Else)
		return t
	case OrderBy:
		t.Body = RewriteForIf(t.Body)
		return t
	case FuncQ:
		args := make([]Query, len(t.Args))
		for i, a := range t.Args {
			args[i] = RewriteForIf(a)
		}
		return FuncQ{Name: t.Name, Args: args}
	case Quantified:
		t.In = RewriteForIf(t.In)
		t.Sat = RewriteForIf(t.Sat)
		return t
	case For:
		t.In = RewriteForIf(t.In)
		t.Return = RewriteForIf(t.Return)
		rewritten := tryPushCondition(t)
		return rewritten
	default:
		return q
	}
}

// tryPushCondition attempts the actual rewriting on one for-loop.
func tryPushCondition(f For) Query {
	iff, ok := f.Return.(If)
	if !ok {
		return f
	}
	if _, isEmpty := iff.Else.(Empty); !isEmpty {
		return f
	}
	condExpr, ok := iff.Cond.(Expr)
	if !ok {
		return f
	}
	inExpr, ok := f.In.(Expr)
	if !ok {
		return f
	}
	inPath, ok := inExpr.E.(xpath.PathExpr)
	if !ok || len(inPath.Path.Steps) == 0 {
		return f
	}
	// The condition must depend only on the loop variable and must not use
	// positional functions (their meaning changes inside a predicate).
	free := map[string]bool{}
	exprFreeVars(condExpr.E, free)
	delete(free, f.Var)
	if len(free) > 0 || usesPositional(condExpr.E) {
		return f
	}
	cond, ok := substSelf(condExpr.E, f.Var)
	if !ok {
		return f
	}
	last := len(inPath.Path.Steps) - 1
	step := inPath.Path.Steps[last]
	step.Preds = append(append([]xpath.Expr{}, step.Preds...), cond)
	newSteps := append(append([]xpath.Step{}, inPath.Path.Steps[:last]...), step)
	inPath.Path = xpath.Path{Absolute: inPath.Path.Absolute, Steps: newSteps}
	return For{Var: f.Var, In: Expr{E: inPath}, Return: iff.Then}
}

func usesPositional(e xpath.Expr) bool {
	found := false
	var walk func(xpath.Expr)
	walk = func(e xpath.Expr) {
		switch t := e.(type) {
		case xpath.Call:
			if t.Name == "position" || t.Name == "last" {
				found = true
			}
			for _, a := range t.Args {
				walk(a)
			}
		case xpath.Binary:
			walk(t.L)
			walk(t.R)
		case xpath.Neg:
			walk(t.E)
		case xpath.PathExpr:
			if t.Filter != nil {
				walk(t.Filter)
			}
			for _, p := range t.FilterPreds {
				walk(p)
			}
			for _, st := range t.Path.Steps {
				for _, p := range st.Preds {
					walk(p)
				}
			}
		}
	}
	walk(e)
	return found
}

// substSelf replaces references to $v by the context node: $v/P becomes
// P, a bare $v becomes self::node(). It reports failure for shapes it
// cannot rewrite (e.g. $v inside a nested filter).
func substSelf(e xpath.Expr, v string) (xpath.Expr, bool) {
	switch t := e.(type) {
	case xpath.Literal, xpath.Number:
		return e, true
	case xpath.Var:
		if t.Name == v {
			return xpath.PathExpr{Path: xpath.Path{Steps: []xpath.Step{{Axis: xpath.Self, Test: xpath.NodeTestNode}}}}, true
		}
		return e, true
	case xpath.Neg:
		inner, ok := substSelf(t.E, v)
		return xpath.Neg{E: inner}, ok
	case xpath.Binary:
		l, ok1 := substSelf(t.L, v)
		r, ok2 := substSelf(t.R, v)
		return xpath.Binary{Op: t.Op, L: l, R: r}, ok1 && ok2
	case xpath.Call:
		args := make([]xpath.Expr, len(t.Args))
		for i, a := range t.Args {
			na, ok := substSelf(a, v)
			if !ok {
				return e, false
			}
			args[i] = na
		}
		return xpath.Call{Name: t.Name, Args: args}, true
	case xpath.PathExpr:
		if t.Filter == nil {
			return e, true
		}
		fv, ok := t.Filter.(xpath.Var)
		if !ok || fv.Name != v {
			return e, false
		}
		if len(t.FilterPreds) > 0 {
			return e, false
		}
		return xpath.PathExpr{Path: t.Path}, true
	}
	return e, false
}
