package core

// This file is the map-based static analysis the bit-row one replaced,
// kept as the differential oracle (oracle_diff_test.go): the grammar's
// relations closed over map[Name]NameSet per call, Fig. 1 and Fig. 2 on
// dtd.NameSet, the memo keyed by rendered strings — the code of the
// commit before the replacement (cb27710), renamed with an "oracle"
// prefix, with the set algebra and name predicates dtd no longer carries
// as local functions. Two presentations that should be equivalent are
// worth testing as such.

import (
	"fmt"
	"strings"

	"xmlproj/internal/dtd"
	"xmlproj/internal/xpath"
	"xmlproj/internal/xpathl"
)

// oracleGrammar is the grammar's relations as the parent commit's
// dtd.finalize and props.go computed them.
type oracleGrammar struct {
	d           *dtd.DTD
	order       []dtd.Name
	childrenOf  map[dtd.Name]dtd.NameSet // ⇒E image incl. text and attribute names
	contentOf   map[dtd.Name]dtd.NameSet // content-model names only
	parentsOf   map[dtd.Name]dtd.NameSet // ⇒E preimage
	ancestorsOf map[dtd.Name]dtd.NameSet // ⇒E⁺ preimage
}

// The NameSet algebra the oracle was written on; dtd.NameSet itself, now
// only the exchange form of π, no longer carries it.
func nsUnion(s, t dtd.NameSet) dtd.NameSet {
	u := s.Clone()
	u.AddAll(t)
	return u
}

func nsIntersect(s, t dtd.NameSet) dtd.NameSet {
	u := dtd.NameSet{}
	for n := range s {
		if t.Has(n) {
			u.Add(n)
		}
	}
	return u
}

// The spelling-based predicates dtd.Name carried at the parent commit.
func oracleIsText(n dtd.Name) bool { return strings.Contains(string(n), "#text") }
func oracleIsAttr(n dtd.Name) bool { return strings.Contains(string(n), "@") }

func oracleRegexNames(r dtd.Regex, out dtd.NameSet) {
	switch x := r.(type) {
	case dtd.Ref:
		out.Add(x.Name)
	case dtd.Seq:
		for _, it := range x.Items {
			oracleRegexNames(it, out)
		}
	case dtd.Alt:
		for _, it := range x.Items {
			oracleRegexNames(it, out)
		}
	case dtd.Star:
		oracleRegexNames(x.Inner, out)
	case dtd.Plus:
		oracleRegexNames(x.Inner, out)
	case dtd.Opt:
		oracleRegexNames(x.Inner, out)
	}
}

func newOracleGrammar(g *dtd.DTD) *oracleGrammar {
	d := &oracleGrammar{d: g, order: g.Names()}
	d.childrenOf = make(map[dtd.Name]dtd.NameSet, len(d.order))
	d.contentOf = make(map[dtd.Name]dtd.NameSet, len(d.order))
	d.parentsOf = make(map[dtd.Name]dtd.NameSet, len(d.order))
	for _, n := range d.order {
		def := g.Def(n)
		content := dtd.NameSet{}
		children := dtd.NameSet{}
		if !def.Text {
			oracleRegexNames(def.Content, content)
			children = content.Clone()
			for i := range def.Atts {
				children.Add(def.Atts[i].Name)
			}
		}
		d.contentOf[n] = content
		d.childrenOf[n] = children
	}
	for _, n := range d.order {
		d.parentsOf[n] = dtd.NameSet{}
	}
	for _, z := range d.order {
		for c := range d.childrenOf[z] {
			if d.parentsOf[c] == nil {
				d.parentsOf[c] = dtd.NameSet{}
			}
			d.parentsOf[c].Add(z)
		}
	}
	// Ancestors per name via upward closure — over every name that has a
	// parent entry, which includes derived attribute names.
	names := make([]dtd.Name, 0, len(d.parentsOf))
	for n := range d.parentsOf {
		names = append(names, n)
	}
	d.ancestorsOf = make(map[dtd.Name]dtd.NameSet, len(names))
	for _, n := range names {
		out := d.parentsOf[n].Clone()
		frontier := out.Clone()
		for !frontier.Empty() {
			next := dtd.NameSet{}
			for f := range frontier {
				for p := range d.parentsOf[f] {
					if !out.Has(p) {
						out.Add(p)
						next.Add(p)
					}
				}
			}
			frontier = next
		}
		d.ancestorsOf[n] = out
	}
	return d
}

func (d *oracleGrammar) Children(n dtd.Name) dtd.NameSet {
	if s, ok := d.childrenOf[n]; ok {
		return s
	}
	return dtd.NameSet{}
}

func (d *oracleGrammar) ContentNames(n dtd.Name) dtd.NameSet {
	if s, ok := d.contentOf[n]; ok {
		return s
	}
	return dtd.NameSet{}
}

func (d *oracleGrammar) Parents(n dtd.Name) dtd.NameSet {
	if s, ok := d.parentsOf[n]; ok {
		return s
	}
	return dtd.NameSet{}
}

func (d *oracleGrammar) AncestorsOf(n dtd.Name) dtd.NameSet {
	if s, ok := d.ancestorsOf[n]; ok {
		return s
	}
	return dtd.NameSet{}
}

// Step returns the one-step image {Y | ∃Z∈from. Z ⇒E Y}.
func (d *oracleGrammar) Step(from dtd.NameSet) dtd.NameSet {
	out := dtd.NameSet{}
	for z := range from {
		out.AddAll(d.Children(z))
	}
	return out
}

// ContentStep is Step restricted to tree children (elements and text):
// attribute names are not reachable on the XPath child/descendant axes.
func (d *oracleGrammar) ContentStep(from dtd.NameSet) dtd.NameSet {
	out := dtd.NameSet{}
	for z := range from {
		out.AddAll(d.ContentNames(z))
	}
	return out
}

// ContentDescendants is Descendants over ContentStep: the names reachable
// on the XPath descendant axis (no attribute names).
func (d *oracleGrammar) ContentDescendants(from dtd.NameSet) dtd.NameSet {
	out := d.ContentStep(from)
	frontier := out.Clone()
	for !frontier.Empty() {
		next := d.ContentStep(frontier)
		frontier = dtd.NameSet{}
		for n := range next {
			if !out.Has(n) {
				out.Add(n)
				frontier.Add(n)
			}
		}
	}
	return out
}

// AttNames returns the derived attribute names of the names in from.
func (d *oracleGrammar) AttNames(from dtd.NameSet) dtd.NameSet {
	out := dtd.NameSet{}
	for z := range from {
		def := d.d.Def(z)
		if def == nil {
			continue
		}
		for i := range def.Atts {
			out.Add(def.Atts[i].Name)
		}
	}
	return out
}

// StepUp returns the one-step preimage {Z | ∃Y∈from. Z ⇒E Y}.
func (d *oracleGrammar) StepUp(from dtd.NameSet) dtd.NameSet {
	out := dtd.NameSet{}
	for y := range from {
		out.AddAll(d.Parents(y))
	}
	return out
}

// Descendants returns the image of from under ⇒E⁺ (strict descendants).
func (d *oracleGrammar) Descendants(from dtd.NameSet) dtd.NameSet {
	out := d.Step(from)
	frontier := out.Clone()
	for !frontier.Empty() {
		next := d.Step(frontier)
		frontier = dtd.NameSet{}
		for n := range next {
			if !out.Has(n) {
				out.Add(n)
				frontier.Add(n)
			}
		}
	}
	return out
}

// Ancestors returns the preimage of from under ⇒E⁺ (strict ancestors).
func (d *oracleGrammar) Ancestors(from dtd.NameSet) dtd.NameSet {
	if d.ancestorsOf != nil {
		out := dtd.NameSet{}
		for n := range from {
			out.AddAll(d.AncestorsOf(n))
		}
		return out
	}
	out := d.StepUp(from)
	frontier := out.Clone()
	for !frontier.Empty() {
		next := d.StepUp(frontier)
		frontier = dtd.NameSet{}
		for n := range next {
			if !out.Has(n) {
				out.Add(n)
				frontier.Add(n)
			}
		}
	}
	return out
}

// ReachableFromRoot returns ⇒E*-image of {Root}: every name that can occur
// in a valid document.
func (d *oracleGrammar) ReachableFromRoot() dtd.NameSet {
	out := dtd.NewNameSet(d.d.Root)
	out.AddAll(d.Descendants(dtd.NewNameSet(d.d.Root)))
	return out
}

// IsRecursive reports whether some name satisfies Y ⇒E⁺ Y (Def. 4.3(2)
// fails).
func (d *oracleGrammar) IsRecursive() bool {
	// Standard three-colour DFS over the name graph.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	colour := map[dtd.Name]int{}
	var visit func(dtd.Name) bool
	visit = func(n dtd.Name) bool {
		colour[n] = grey
		for c := range d.Children(n) {
			switch colour[c] {
			case grey:
				return true
			case white:
				if visit(c) {
					return true
				}
			}
		}
		colour[n] = black
		return false
	}
	for _, n := range d.order {
		if colour[n] == white && visit(n) {
			return true
		}
	}
	return false
}

// IsParentUnambiguous reports Def. 4.3(3): whenever cYZ is a chain from
// the root, no chain cYc′Z with c′ ≠ ε exists. Equivalently: for every
// root-reachable Y with Y ⇒E Z, Z is not reachable from Y through a
// non-empty intermediate chain.
func (d *oracleGrammar) IsParentUnambiguous() bool {
	reach := d.ReachableFromRoot()
	for y := range reach {
		direct := d.Children(y)
		if direct.Empty() {
			continue
		}
		// Names reachable from y in ≥ 2 steps.
		twoPlus := d.Descendants(direct)
		for z := range direct {
			if twoPlus.Has(z) {
				return false
			}
		}
	}
	return true
}

// oracleEnv is an environment Σ = (τ, κ): the current type and context. The
// context contains only names occurring on chains that end at names in τ
// (well-formedness, §4.1); it is what makes the analysis of upward axes
// precise on DTDs where a name occurs in several contents.
type oracleEnv struct {
	Tau   dtd.NameSet
	Kappa dtd.NameSet
}

func (e oracleEnv) String() string {
	return fmt.Sprintf("(%s, %s)", e.Tau, e.Kappa)
}

// oracleRootEnv is the initial environment ({X}, {X}) for a DTD rooted at X.
func oracleRootEnv(d *oracleGrammar) oracleEnv {
	return oracleEnv{Tau: dtd.NewNameSet(d.d.Root), Kappa: dtd.NewNameSet(d.d.Root)}
}

// oracleAxisType implements A_E(τ, Axis) of Def. 4.1 extended with the
// descendant-or-self / ancestor-or-self / attribute axes used by the
// implementation (§6).
func oracleAxisType(d *oracleGrammar, tau dtd.NameSet, axis xpath.Axis) dtd.NameSet {
	switch axis {
	case xpath.Self:
		return tau.Clone()
	case xpath.Child:
		return d.ContentStep(tau)
	case xpath.Descendant:
		return d.ContentDescendants(tau)
	case xpath.DescendantOrSelf:
		return nsUnion(tau, d.ContentDescendants(tau))
	case xpath.Parent:
		return d.StepUp(tau)
	case xpath.Ancestor:
		return d.Ancestors(tau)
	case xpath.AncestorOrSelf:
		return nsUnion(tau, d.Ancestors(tau))
	case xpath.Attribute:
		return d.AttNames(tau)
	default:
		// Sibling and preceding/following axes are rewritten away by
		// xpathl.RewriteAxis before the analysis runs.
		return dtd.NameSet{}
	}
}

// oracleTestType implements T_E(τ, Test) of Def. 4.1. Attribute names can only
// enter a type through the attribute axis (A_E filters them out
// everywhere else), so name and * tests match them by their attribute
// part without needing to know the axis — which the encoding
// Axis::Test ⇒ Axis::node/self::Test erases anyway.
func oracleTestType(d *oracleGrammar, tau dtd.NameSet, test xpath.NodeTest) dtd.NameSet {
	out := dtd.NameSet{}
	for n := range tau {
		switch test.Kind {
		case xpath.TestNode:
			out.Add(n)
		case xpath.TestText:
			if oracleIsText(n) {
				out.Add(n)
			}
		case xpath.TestStar:
			if !oracleIsText(n) {
				out.Add(n)
			}
		case xpath.TestName:
			if oracleIsAttr(n) {
				if strings.HasSuffix(string(n), "@"+test.Name) {
					out.Add(n)
				}
			} else if !oracleIsText(n) {
				if def := d.d.Def(n); def != nil && def.Tag == test.Name {
					out.Add(n)
				}
			}
		}
	}
	return out
}

// oracleChecker runs the Fig. 1 type system over a fixed DTD.
type oracleChecker struct {
	D *oracleGrammar
	// NoContext disables the context intersection on upward axes — the
	// naive type system the paper's §4.1 example rejects. It exists only
	// for the ablation benchmark quantifying what contexts buy.
	NoContext bool
}

// newOracleChecker returns a oracleChecker for d.
func newOracleChecker(d *oracleGrammar) *oracleChecker { return &oracleChecker{D: d} }

// restrictContext returns κ ∩ (τ ∪ A_E(τ, ancestor)): the names of κ still
// on a chain ending at τ. It re-establishes well-formedness after τ
// shrank.
func (c *oracleChecker) restrictContext(kappa, tau dtd.NameSet) dtd.NameSet {
	keep := nsUnion(tau, c.D.Ancestors(tau))
	return nsIntersect(kappa, keep)
}

// TypeSimpleStep types one predicate-free step, implementing the first
// three rules of Fig. 1 (with Axis::Test for Test ≠ node encoded as
// Axis::node/self::Test, fifth rule).
func (c *oracleChecker) TypeSimpleStep(env oracleEnv, s xpathl.SStep) oracleEnv {
	if s.Axis != xpath.Self && (s.Test.Kind != xpath.TestNode) {
		env = c.TypeSimpleStep(env, xpathl.SStep{Axis: s.Axis, Test: xpath.NodeTestNode})
		return c.TypeSimpleStep(env, xpathl.SStep{Axis: xpath.Self, Test: s.Test})
	}
	switch {
	case s.Axis == xpath.Self:
		// Third rule: filter by the test, then discard context names that
		// only led to discarded nodes.
		tau := oracleTestType(c.D, env.Tau, s.Test)
		return oracleEnv{Tau: tau, Kappa: c.restrictContext(env.Kappa, tau)}
	case s.Axis.Upward():
		// Second rule: upward axes intersect with the context.
		tau := oracleAxisType(c.D, env.Tau, s.Axis)
		if !c.NoContext {
			tau = nsIntersect(tau, env.Kappa)
			return oracleEnv{Tau: tau, Kappa: c.restrictContext(env.Kappa, tau)}
		}
		return oracleEnv{Tau: tau, Kappa: nsUnion(tau, c.D.Ancestors(tau))}
	default:
		// First rule: downward axes extend the context.
		tau := oracleAxisType(c.D, env.Tau, s.Axis)
		return oracleEnv{Tau: tau, Kappa: nsUnion(env.Kappa, tau)}
	}
}

// TypeSimplePath types a predicate-free path by step composition (the
// "cut" rule of Fig. 1). Absolute paths restart from the root
// environment.
func (c *oracleChecker) TypeSimplePath(env oracleEnv, p xpathl.SimplePath) oracleEnv {
	if p.Absolute {
		env = oracleRootEnv(c.D)
	}
	for _, s := range p.Steps {
		env = c.TypeSimpleStep(env, s)
		if env.Tau.Empty() {
			return oracleEnv{Tau: dtd.NameSet{}, Kappa: dtd.NameSet{}}
		}
	}
	return env
}

// CondHolds reports whether the condition may hold for a single name:
// some disjunct types to a non-empty set from ({x}, κx) (fourth rule of
// Fig. 1).
func (c *oracleChecker) CondHolds(x dtd.Name, kappa dtd.NameSet, cond *xpathl.Cond) bool {
	single := dtd.NewNameSet(x)
	kx := nsIntersect(kappa, nsUnion(single, c.D.Ancestors(single)))
	env := oracleEnv{Tau: single, Kappa: kx}
	for _, p := range cond.Disjuncts {
		if !c.TypeSimplePath(env, p).Tau.Empty() {
			return true
		}
	}
	return false
}

// TypeCondStep types self::node()[Cond] (fourth rule of Fig. 1): keep the
// names for which some disjunct may yield a non-empty result.
func (c *oracleChecker) TypeCondStep(env oracleEnv, cond *xpathl.Cond) oracleEnv {
	tau := dtd.NameSet{}
	for x := range env.Tau {
		if c.CondHolds(x, env.Kappa, cond) {
			tau.Add(x)
		}
	}
	return oracleEnv{Tau: tau, Kappa: c.restrictContext(env.Kappa, tau)}
}

// TypeStep types one XPathℓ step, conditions included (sixth rule of
// Fig. 1 encodes Axis::Test[Cond] as Axis::Test/self::node[Cond]).
func (c *oracleChecker) TypeStep(env oracleEnv, s xpathl.Step) oracleEnv {
	env = c.TypeSimpleStep(env, s.SStep)
	if s.Cond != nil {
		env = c.TypeCondStep(env, s.Cond)
	}
	return env
}

// TypePath types a full XPathℓ path from env: the judgement
// Σ ⊢E Path : Σ′.
func (c *oracleChecker) TypePath(env oracleEnv, p *xpathl.Path) oracleEnv {
	if p.Absolute {
		env = oracleRootEnv(c.D)
	}
	for _, s := range p.Steps {
		env = c.TypeStep(env, s)
		if env.Tau.Empty() {
			return oracleEnv{Tau: dtd.NameSet{}, Kappa: dtd.NameSet{}}
		}
	}
	return env
}

// Type returns the type of a path evaluated from the DTD root: the set τ
// with ({X},{X}) ⊢E P : (τ, _). Soundness (Thm. 4.4): every node produced
// by P on a valid document has its name in τ.
func (c *oracleChecker) Type(p *xpathl.Path) dtd.NameSet {
	return c.TypePath(oracleRootEnv(c.D), p).Tau
}

// oracleInferencer runs the Fig. 2 projector-inference rules.
type oracleInferencer struct {
	c *oracleChecker
	// memo caches ⊩ results keyed by (name, context, path suffix).
	memo map[string]dtd.NameSet
}

// newOracleInferencer returns an oracleInferencer over d.
func newOracleInferencer(d *oracleGrammar) *oracleInferencer {
	return &oracleInferencer{c: newOracleChecker(d), memo: map[string]dtd.NameSet{}}
}

// InferPath infers the projector for one XPathℓ path evaluated from the
// document root: ({X},{X}) ⊩E P : π (Thm. 4.5: querying the π-pruned
// document is equivalent to querying the original).
//
// descendant-or-self and ancestor-or-self steps are not covered by the
// Fig. 2 rules; each such step is expanded into its self and
// descendant/ancestor variants and the per-variant projectors are
// unioned (projectors are closed under union). A trailing
// descendant-or-self::node() — the materialisation marker of §5 — thereby
// realises exactly the remark after Thm. 4.5: π = τ′ ∪ A_E(τ″, descendant).
func (inf *oracleInferencer) InferPath(p *xpathl.Path) (dtd.NameSet, error) {
	for _, s := range p.Steps {
		if err := checkAxis(s.Axis); err != nil {
			return nil, err
		}
		if s.Cond != nil {
			for _, d := range s.Cond.Disjuncts {
				for _, ds := range d.Steps {
					if err := checkAxis(ds.Axis); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	root := oracleRootEnv(inf.c.D)
	names := dtd.NewNameSet(inf.c.D.d.Root)
	for _, variant := range expandOrSelf(p.Steps) {
		names.AddAll(inf.project(root.Tau, root.Kappa, variant))
	}
	return names, nil
}

// project implements Σ ⊩E P : τ for an expanded (or-self-free) path.
func (inf *oracleInferencer) project(tau, kappa dtd.NameSet, steps []xpathl.Step) dtd.NameSet {
	out := dtd.NameSet{}
	if len(steps) == 0 {
		return out
	}
	// Third rule of Fig. 2: decompose the type into singletons.
	for y := range tau {
		out.AddAll(inf.projectSingle(y, kappa, steps))
	}
	return out
}

func (inf *oracleInferencer) projectSingle(y dtd.Name, kappa dtd.NameSet, steps []xpathl.Step) dtd.NameSet {
	key := oracleMemoKey(y, kappa, steps)
	if cached, ok := inf.memo[key]; ok {
		return cached
	}
	// Seed the memo against (impossible in well-founded paths, but cheap)
	// re-entrancy with the empty set.
	inf.memo[key] = dtd.NameSet{}
	res := inf.projectSingleUncached(y, kappa, steps)
	inf.memo[key] = res
	return res
}

func oracleMemoKey(y dtd.Name, kappa dtd.NameSet, steps []xpathl.Step) string {
	var sb strings.Builder
	sb.WriteString(string(y))
	sb.WriteString("\x00")
	for _, n := range kappa.Sorted() {
		sb.WriteString(string(n))
		sb.WriteString(",")
	}
	sb.WriteString("\x00")
	for i := range steps {
		sb.WriteString(steps[i].String())
		sb.WriteString("/")
	}
	return sb.String()
}

func (inf *oracleInferencer) projectSingleUncached(y dtd.Name, kappa dtd.NameSet, steps []xpathl.Step) dtd.NameSet {
	c := inf.c
	s := steps[0]
	rest := steps[1:]
	selfEnv := oracleEnv{Tau: dtd.NewNameSet(y), Kappa: kappa}

	// Encoded rules: normalise to the three primitive forms.
	if s.Cond != nil && !(s.Axis == xpath.Self && s.Test.Kind == xpath.TestNode) {
		// Axis::Test[Cond]/P ⇒ Axis::Test/self::node[Cond]/P.
		norm := append([]xpathl.Step{
			{SStep: s.SStep},
			{SStep: xpathl.SStep{Axis: xpath.Self, Test: xpath.NodeTestNode}, Cond: s.Cond},
		}, rest...)
		return inf.projectSingle(y, kappa, norm)
	}
	if s.Cond == nil && s.Axis != xpath.Self && s.Test.Kind != xpath.TestNode {
		// Axis::Test/P ⇒ Axis::node/self::Test/P.
		norm := append([]xpathl.Step{
			{SStep: xpathl.SStep{Axis: s.Axis, Test: xpath.NodeTestNode}},
			{SStep: xpathl.SStep{Axis: xpath.Self, Test: s.Test}},
		}, rest...)
		return inf.projectSingle(y, kappa, norm)
	}

	// Base rule (single step): Σ ⊢ Step : (τ,κ′) ⟹ Σ ⊩ Step : τ ∪ κ′.
	// Step[Cond] is encoded as Step[Cond]/self::node() (second base rule).
	if len(rest) == 0 {
		if s.Cond != nil {
			norm := []xpathl.Step{s, {SStep: xpathl.SStep{Axis: xpath.Self, Test: xpath.NodeTestNode}}}
			return inf.projectSingle(y, kappa, norm)
		}
		env := c.TypeSimpleStep(selfEnv, s.SStep)
		return nsUnion(env.Tau, env.Kappa)
	}

	switch {
	case s.Axis == xpath.Self && s.Cond == nil:
		// First primitive rule: self::Test/P.
		env := c.TypeStep(selfEnv, s)
		res := dtd.NewNameSet(y)
		res.AddAll(inf.project(env.Tau, env.Kappa, rest))
		return res

	case s.Axis == xpath.Self && s.Cond != nil:
		// Second primitive rule: self::node[P1 or … or Pn]/P.
		env := c.TypeCondStep(selfEnv, s.Cond)
		res := dtd.NewNameSet(y)
		res.AddAll(inf.project(env.Tau, env.Kappa, rest))
		if !env.Tau.Empty() {
			for _, d := range s.Cond.Disjuncts {
				res.AddAll(inf.projectCondPath(env, d))
			}
		}
		return res

	case s.Axis == xpath.Parent || s.Axis == xpath.Child || s.Axis == xpath.Attribute:
		// Third primitive rule: Axis::node/P for one-step axes. Instead of
		// sharing the (sibling-polluted) context κ′ = κ ∪ A_E(τ, Axis)
		// across all premises, each name Xi continues with its own chain
		// context — for a downward step exactly κ ∪ {Xi}, for an upward
		// one the restriction of κ to Xi's chains. This is the §6
		// implementation refinement that keeps contexts chain-shaped; it
		// is sound (per-name contexts still contain every name on a chain
		// to Xi) and strictly more precise than the shared context.
		env := c.TypeSimpleStep(selfEnv, s.SStep)
		res := dtd.NewNameSet(y)
		for x := range env.Tau {
			kx := inf.chainContext(kappa, env.Kappa, x, s.Axis)
			sub := oracleEnv{Tau: dtd.NewNameSet(x), Kappa: kx}
			if inf.typePathSteps(sub, rest).Tau.Empty() {
				continue
			}
			res.Add(x)
			res.AddAll(inf.projectSingle(x, kx, rest))
		}
		return res

	case s.Axis == xpath.Descendant:
		// Fourth primitive rule: desc::node/P ⇒ keep the useful
		// intermediate names, then continue with child::node/P from them.
		// The chain to any selected node passes only through useful names
		// (each intermediate has the selection as a descendant), so the
		// continuation context is κ ∪ useful, not κ ∪ A_E(τ, descendant).
		env := c.TypeSimpleStep(selfEnv, s.SStep)
		useful := dtd.NewNameSet(y)
		for x := range env.Tau {
			sub := oracleEnv{Tau: dtd.NewNameSet(x), Kappa: env.Kappa}
			if !inf.typePathSteps(sub, steps).Tau.Empty() {
				useful.Add(x)
			}
		}
		childStep := xpathl.Step{SStep: xpathl.SStep{Axis: xpath.Child, Test: xpath.NodeTestNode}}
		res := useful.Clone()
		res.AddAll(inf.project(useful, nsUnion(kappa, useful), append([]xpathl.Step{childStep}, rest...)))
		return res

	case s.Axis == xpath.Ancestor:
		// Fifth primitive rule: ancs::node/P, symmetric via parent.
		env := c.TypeSimpleStep(selfEnv, s.SStep)
		useful := dtd.NewNameSet(y)
		for x := range env.Tau {
			sub := oracleEnv{Tau: dtd.NewNameSet(x), Kappa: env.Kappa}
			if !inf.typePathSteps(sub, steps).Tau.Empty() {
				useful.Add(x)
			}
		}
		parentStep := xpathl.Step{SStep: xpathl.SStep{Axis: xpath.Parent, Test: xpath.NodeTestNode}}
		res := useful.Clone()
		res.AddAll(inf.project(useful, nsIntersect(env.Kappa, nsUnion(kappa, useful)), append([]xpathl.Step{parentStep}, rest...)))
		return res
	}
	// Unreachable given checkAxis + expandOrSelf.
	panic(fmt.Sprintf("core: unhandled step %s", s))
}

// chainContext computes the continuation context for a single name x
// reached by one step from a node whose pre-step context was kappaBefore
// (post-step shared context kappaAfter): downward steps extend the chain
// by exactly x; upward steps restrict the post-step context to x's
// chains.
func (inf *oracleInferencer) chainContext(kappaBefore, kappaAfter dtd.NameSet, x dtd.Name, axis xpath.Axis) dtd.NameSet {
	if axis.Upward() {
		single := dtd.NewNameSet(x)
		return nsIntersect(kappaAfter, nsUnion(single, inf.c.D.Ancestors(single)))
	}
	out := kappaBefore.Clone()
	out.Add(x)
	return out
}

// typePathSteps runs the type system over a step slice (helper for the
// usefulness premises ({Xi},κ′) ⊢ P : Σ^i of Fig. 2).
func (inf *oracleInferencer) typePathSteps(env oracleEnv, steps []xpathl.Step) oracleEnv {
	for _, s := range steps {
		env = inf.c.TypeStep(env, s)
		if env.Tau.Empty() {
			return env
		}
	}
	return env
}

// projectCondPath infers the projector of one condition disjunct
// (Σ ⊩ Pi : τi in the second primitive rule). Absolute disjuncts run from
// the root environment.
func (inf *oracleInferencer) projectCondPath(env oracleEnv, p xpathl.SimplePath) dtd.NameSet {
	res := dtd.NameSet{}
	for _, variant := range expandSimpleOrSelf(p) {
		steps := make([]xpathl.Step, len(variant.Steps))
		for i, s := range variant.Steps {
			steps[i] = xpathl.Step{SStep: s}
		}
		if len(steps) == 0 {
			continue
		}
		if variant.Absolute {
			root := oracleRootEnv(inf.c.D)
			res.AddAll(inf.project(root.Tau, root.Kappa, steps))
			continue
		}
		res.AddAll(inf.project(env.Tau, env.Kappa, steps))
	}
	return res
}

// oracleInfer computes the union projector for a set of XPathℓ paths — the
// whole-query (or query-bunch) analysis of §5.
func oracleInfer(d *oracleGrammar, paths []*xpathl.Path) (dtd.NameSet, error) {
	return newOracleInferencer(d).inferAll(paths)
}

// oracleInferNoContext is oracleInfer with the Fig. 1 context machinery disabled —
// the naive upward typing the paper's §4.1 example rules out. It exists
// for the ablation benchmark quantifying the precision contexts buy; it
// is still sound, just coarser.
func oracleInferNoContext(d *oracleGrammar, paths []*xpathl.Path) (dtd.NameSet, error) {
	inf := newOracleInferencer(d)
	inf.c.NoContext = true
	return inf.inferAll(paths)
}

func (inf *oracleInferencer) inferAll(paths []*xpathl.Path) (dtd.NameSet, error) {
	out := dtd.NewNameSet(inf.c.D.d.Root)
	for _, p := range paths {
		pr, err := inf.InferPath(p)
		if err != nil {
			return nil, err
		}
		out.AddAll(pr)
	}
	return out, nil
}

// oracleInferMaterialized infers a projector that also keeps the subtrees (and
// attributes) of every result node, suitable for materialising query
// results.
func oracleInferMaterialized(d *oracleGrammar, paths []*xpathl.Path) (dtd.NameSet, error) {
	widened := make([]*xpathl.Path, len(paths))
	for i, p := range paths {
		widened[i] = Materialize(p)
	}
	pr, err := oracleInfer(d, widened)
	if err != nil {
		return nil, err
	}
	// A materialised subtree must keep its attributes as well: the
	// descendant closure of the base rule only covers tree children, so
	// add the attribute names of every result name and of its descendants
	// (the implementation-level attribute extension of §6).
	c := newOracleChecker(d)
	for _, p := range paths {
		result := c.Type(p)
		subtree := nsUnion(result, d.ContentDescendants(result))
		pr.AddAll(d.AttNames(subtree))
	}
	return pr, nil
}

// expandSimpleOrSelf is expandOrSelf for predicate-free condition paths.
func expandSimpleOrSelf(p xpathl.SimplePath) []xpathl.SimplePath {
	steps := make([]xpathl.Step, len(p.Steps))
	for i, s := range p.Steps {
		steps[i] = xpathl.Step{SStep: s}
	}
	var out []xpathl.SimplePath
	for _, variant := range expandOrSelf(steps) {
		sp := xpathl.SimplePath{Absolute: p.Absolute}
		for _, s := range variant {
			sp.Steps = append(sp.Steps, s.SStep)
		}
		out = append(out, sp)
	}
	return out
}
