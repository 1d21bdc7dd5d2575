// Package core implements the paper's central contribution: the static
// analysis that infers a type projector from an XPathℓ path and a DTD.
//
// It has two layers, mirroring §4 of the paper:
//
//   - the type system of Fig. 1 (this file): judgements
//     (τ,κ) ⊢E Path : (τ′,κ′) computing the set of names a path can
//     produce, with *contexts* κ making upward axes precise;
//   - the projector-inference rules of Fig. 2 (projector.go): judgements
//     (τ,κ) ⊩E Path : π computing the type projector itself.
package core

import (
	"xmlproj/internal/dtd"
	"xmlproj/internal/xpath"
	"xmlproj/internal/xpathl"
)

// Env is an environment Σ = (τ, κ): the current type and context, each
// a bit row over the grammar's symbols. The context contains only names
// occurring on chains that end at names in τ (well-formedness, §4.1); it
// is what makes the analysis of upward axes precise on DTDs where a name
// occurs in several contents. The rules treat rows as values: a row that
// has been handed on is never modified again.
type Env struct {
	Tau   dtd.Row
	Kappa dtd.Row
}

// RootEnv is the initial environment ({X}, {X}) for a grammar rooted at
// X.
func RootEnv(s *dtd.Symbols) Env {
	root := s.NewRow(s.Root())
	return Env{Tau: root, Kappa: root}
}

// AxisType implements A_E(τ, Axis) of Def. 4.1 extended with the
// descendant-or-self / ancestor-or-self / attribute axes used by the
// implementation (§6): the union of the axis relation's rows over τ.
func AxisType(s *dtd.Symbols, tau dtd.Row, axis xpath.Axis) dtd.Row {
	switch axis {
	case xpath.Self:
		return tau
	case xpath.Child:
		return s.Content.Image(tau)
	case xpath.Descendant:
		return s.Descendants.Image(tau)
	case xpath.DescendantOrSelf:
		return union(tau, s.Descendants.Image(tau))
	case xpath.Parent:
		return s.Parents.Image(tau)
	case xpath.Ancestor:
		return s.Ancestors.Image(tau)
	case xpath.AncestorOrSelf:
		return union(tau, s.Ancestors.Image(tau))
	case xpath.Attribute:
		return s.Atts.Image(tau)
	default:
		// Sibling and preceding/following axes are rewritten away by
		// xpathl.RewriteAxis before the analysis runs.
		return s.NewRow()
	}
}

// TestType implements T_E(τ, Test) of Def. 4.1. Attribute names can only
// enter a type through the attribute axis (A_E filters them out
// everywhere else), so name and * tests match them by their attribute
// part without needing to know the axis — which the encoding
// Axis::Test ⇒ Axis::node/self::Test erases anyway.
func TestType(s *dtd.Symbols, tau dtd.Row, test xpath.NodeTest) dtd.Row {
	switch test.Kind {
	case xpath.TestNode:
		return tau
	case xpath.TestText:
		return intersect(tau, s.Text)
	case xpath.TestStar:
		out := tau.Clone()
		out.AndNot(s.Text)
		return out
	}
	out := s.NewRow()
	if test.Kind == xpath.TestName {
		for x := tau.Next(0); x >= 0; x = tau.Next(x + 1) {
			if s.Label(x) == test.Name {
				out.Add(x)
			}
		}
	}
	return out
}

// union and intersect return fresh rows; the operands are left alone.
func union(a, b dtd.Row) dtd.Row {
	out := a.Clone()
	out.Or(b)
	return out
}

func intersect(a, b dtd.Row) dtd.Row {
	out := a.Clone()
	out.And(b)
	return out
}

// Checker runs the Fig. 1 type system over a fixed DTD.
type Checker struct {
	D *dtd.DTD
	s *dtd.Symbols
	// none is the empty row, shared: rows are never modified once handed
	// on.
	none dtd.Row
	// NoContext disables the context intersection on upward axes — the
	// naive type system the paper's §4.1 example rejects. It exists only
	// for the ablation benchmark quantifying what contexts buy.
	NoContext bool
}

// NewChecker returns a Checker for d.
func NewChecker(d *dtd.DTD) *Checker {
	s := d.Symbols()
	return &Checker{D: d, s: s, none: s.NewRow()}
}

// chains returns τ ∪ A_E(τ, ancestor): every name on a chain ending at τ.
func (c *Checker) chains(tau dtd.Row) dtd.Row {
	out := c.s.Ancestors.Image(tau)
	out.Or(tau)
	return out
}

// restrictContext returns κ ∩ (τ ∪ A_E(τ, ancestor)): the names of κ still
// on a chain ending at τ. It re-establishes well-formedness after τ
// shrank.
func (c *Checker) restrictContext(kappa, tau dtd.Row) dtd.Row {
	keep := c.chains(tau)
	keep.And(kappa)
	return keep
}

// chainsOf is restrictContext for a single name: κ ∩ ({x} ∪ ancestors of x).
func (c *Checker) chainsOf(kappa dtd.Row, x int32) dtd.Row {
	keep := c.s.Ancestors.Row(x).Clone()
	keep.Add(x)
	keep.And(kappa)
	return keep
}

// empty is the environment of a path that selects nothing.
func (c *Checker) empty() Env { return Env{Tau: c.none, Kappa: c.none} }

// TypeSimpleStep types one predicate-free step, implementing the first
// three rules of Fig. 1 (with Axis::Test for Test ≠ node encoded as
// Axis::node/self::Test, fifth rule).
func (c *Checker) TypeSimpleStep(env Env, s xpathl.SStep) Env {
	if s.Axis != xpath.Self && (s.Test.Kind != xpath.TestNode) {
		env = c.TypeSimpleStep(env, xpathl.SStep{Axis: s.Axis, Test: xpath.NodeTestNode})
		return c.TypeSimpleStep(env, xpathl.SStep{Axis: xpath.Self, Test: s.Test})
	}
	switch {
	case s.Axis == xpath.Self:
		// Third rule: filter by the test, then discard context names that
		// only led to discarded nodes.
		tau := TestType(c.s, env.Tau, s.Test)
		return Env{Tau: tau, Kappa: c.restrictContext(env.Kappa, tau)}
	case s.Axis.Upward():
		// Second rule: upward axes intersect with the context.
		tau := AxisType(c.s, env.Tau, s.Axis)
		if !c.NoContext {
			tau = intersect(tau, env.Kappa)
			return Env{Tau: tau, Kappa: c.restrictContext(env.Kappa, tau)}
		}
		return Env{Tau: tau, Kappa: c.chains(tau)}
	default:
		// First rule: downward axes extend the context.
		tau := AxisType(c.s, env.Tau, s.Axis)
		return Env{Tau: tau, Kappa: union(env.Kappa, tau)}
	}
}

// TypeSimplePath types a predicate-free path by step composition (the
// "cut" rule of Fig. 1). Absolute paths restart from the root
// environment.
func (c *Checker) TypeSimplePath(env Env, p xpathl.SimplePath) Env {
	if p.Absolute {
		env = RootEnv(c.s)
	}
	for _, s := range p.Steps {
		env = c.TypeSimpleStep(env, s)
		if env.Tau.Empty() {
			return c.empty()
		}
	}
	return env
}

// CondHolds reports whether the condition may hold for a single name:
// some disjunct types to a non-empty set from ({x}, κx) (fourth rule of
// Fig. 1).
func (c *Checker) CondHolds(x int32, kappa dtd.Row, cond *xpathl.Cond) bool {
	env := Env{Tau: c.s.NewRow(x), Kappa: c.chainsOf(kappa, x)}
	for _, p := range cond.Disjuncts {
		if !c.TypeSimplePath(env, p).Tau.Empty() {
			return true
		}
	}
	return false
}

// TypeCondStep types self::node()[Cond] (fourth rule of Fig. 1): keep the
// names for which some disjunct may yield a non-empty result.
func (c *Checker) TypeCondStep(env Env, cond *xpathl.Cond) Env {
	tau := c.s.NewRow()
	for x := env.Tau.Next(0); x >= 0; x = env.Tau.Next(x + 1) {
		if c.CondHolds(x, env.Kappa, cond) {
			tau.Add(x)
		}
	}
	return Env{Tau: tau, Kappa: c.restrictContext(env.Kappa, tau)}
}

// TypeStep types one XPathℓ step, conditions included (sixth rule of
// Fig. 1 encodes Axis::Test[Cond] as Axis::Test/self::node[Cond]).
func (c *Checker) TypeStep(env Env, s xpathl.Step) Env {
	env = c.TypeSimpleStep(env, s.SStep)
	if s.Cond != nil {
		env = c.TypeCondStep(env, s.Cond)
	}
	return env
}

// TypePath types a full XPathℓ path from env: the judgement
// Σ ⊢E Path : Σ′.
func (c *Checker) TypePath(env Env, p *xpathl.Path) Env {
	if p.Absolute {
		env = RootEnv(c.s)
	}
	return c.typeSteps(env, p.Steps)
}

// typeSteps composes TypeStep over a step slice (also the usefulness
// premises ({Xi},κ′) ⊢ P : Σ^i of Fig. 2).
func (c *Checker) typeSteps(env Env, steps []xpathl.Step) Env {
	for _, s := range steps {
		env = c.TypeStep(env, s)
		if env.Tau.Empty() {
			return c.empty()
		}
	}
	return env
}

// Type returns the type of a path evaluated from the DTD root: the set τ
// with ({X},{X}) ⊢E P : (τ, _), as a row over the grammar's symbols.
// Soundness (Thm. 4.4): every node produced by P on a valid document has
// its name in τ.
func (c *Checker) Type(p *xpathl.Path) dtd.Row {
	return c.TypePath(RootEnv(c.s), p).Tau
}
