package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"xmlproj/internal/dtd"
	"xmlproj/internal/xpath"
	"xmlproj/internal/xpathl"
)

// Projector is an inferred type projector π for a DTD (Def. 2.6): the set
// of names whose nodes survive pruning.
//
// π's derived forms — the decision table the pruners walk and the two
// fingerprints the result cache keys on — are computed on first use and
// kept here, so whoever holds the projector (a caller, the engine's
// inference cache) holds them too and nothing downstream needs a cache
// to avoid recomputing them. Names must not change once either has been
// asked for; inference unions into a projector before handing it out.
type Projector struct {
	D     *dtd.DTD
	Names dtd.NameSet

	compileOnce sync.Once
	compiled    *dtd.Projection

	fpOnce sync.Once
	fp     [2]string
}

// Compiled returns π compiled against the grammar's symbol table
// (dtd.CompileProjection: ≈ 6 µs, 18 allocations on the XMark DTD),
// computed once per projector.
func (p *Projector) Compiled() *dtd.Projection {
	p.compileOnce.Do(func() { p.compiled = p.D.CompileProjection(p.Names) })
	return p.compiled
}

// ResultFingerprint identifies the bytes a prune with π produces, as
// the variant half of a result-cache key and of an ETag: the grammar
// fingerprint, π's sorted names and the validate mode, hashed once per
// projector. The prune engine is not in it: every engine emits
// byte-identical output (differential-tested), so a result filled by
// one serves them all.
func (p *Projector) ResultFingerprint(validate bool) string {
	p.fpOnce.Do(func() {
		names := p.Names.Sorted()
		parts := make([]string, 0, len(names)+2)
		parts = append(parts, p.D.Fingerprint())
		for _, n := range names {
			parts = append(parts, string(n))
		}
		p.fp[0] = dtd.Fingerprint(parts...)
		p.fp[1] = dtd.Fingerprint(append(parts, "validate")...)
	})
	if validate {
		return p.fp[1]
	}
	return p.fp[0]
}

// Has reports whether a name is kept by the projector.
func (p *Projector) Has(n dtd.Name) bool { return p.Names.Has(n) }

// Union merges another projector for the same DTD into p (projectors are
// closed under union, §5).
func (p *Projector) Union(q *Projector) {
	p.Names.AddAll(q.Names)
}

// KeepRatio returns |π| / |DN(E) reachable from the root| — a static
// indicator of pruning selectivity.
func (p *Projector) KeepRatio() float64 {
	reach := p.D.ReachableFromRoot()
	if reach.Len() == 0 {
		return 1
	}
	return float64(p.Names.Intersect(reach).Len()) / float64(reach.Len())
}

func (p *Projector) String() string {
	names := p.Names.Sorted()
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = string(n)
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}

// Inferencer runs the Fig. 2 projector-inference rules.
type Inferencer struct {
	c *Checker
	// memo caches ⊩ results keyed by (name, context, path suffix).
	memo map[string]dtd.NameSet
}

// NewInferencer returns an Inferencer over d.
func NewInferencer(d *dtd.DTD) *Inferencer {
	return &Inferencer{c: NewChecker(d), memo: map[string]dtd.NameSet{}}
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
func (inf *Inferencer) InferPath(p *xpathl.Path) (*Projector, error) {
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
	root := RootEnv(inf.c.D)
	names := dtd.NewNameSet(inf.c.D.Root)
	for _, variant := range expandOrSelf(p.Steps) {
		names.AddAll(inf.project(root.Tau, root.Kappa, variant))
	}
	return &Projector{D: inf.c.D, Names: names}, nil
}

func checkAxis(a xpath.Axis) error {
	switch a {
	case xpath.Child, xpath.Descendant, xpath.Parent, xpath.Ancestor,
		xpath.Self, xpath.DescendantOrSelf, xpath.AncestorOrSelf, xpath.Attribute:
		return nil
	}
	return fmt.Errorf("core: axis %s must be rewritten before projector inference", a)
}

// expandOrSelf replaces every descendant-or-self (ancestor-or-self) step
// by its self and descendant (ancestor) variants, returning up to 2^k
// variant paths.
func expandOrSelf(steps []xpathl.Step) [][]xpathl.Step {
	out := [][]xpathl.Step{{}}
	for _, s := range steps {
		var alts []xpathl.Step
		switch s.Axis {
		case xpath.DescendantOrSelf:
			self, desc := s, s
			self.Axis = xpath.Self
			desc.Axis = xpath.Descendant
			alts = []xpathl.Step{self, desc}
		case xpath.AncestorOrSelf:
			self, anc := s, s
			self.Axis = xpath.Self
			anc.Axis = xpath.Ancestor
			alts = []xpathl.Step{self, anc}
		default:
			alts = []xpathl.Step{s}
		}
		var next [][]xpathl.Step
		for _, prefix := range out {
			for _, a := range alts {
				variant := make([]xpathl.Step, len(prefix), len(prefix)+1)
				copy(variant, prefix)
				next = append(next, append(variant, a))
			}
		}
		out = next
	}
	return out
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

// project implements Σ ⊩E P : τ for an expanded (or-self-free) path.
func (inf *Inferencer) project(tau, kappa dtd.NameSet, steps []xpathl.Step) dtd.NameSet {
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

func (inf *Inferencer) projectSingle(y dtd.Name, kappa dtd.NameSet, steps []xpathl.Step) dtd.NameSet {
	key := memoKey(y, kappa, steps)
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

func memoKey(y dtd.Name, kappa dtd.NameSet, steps []xpathl.Step) string {
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

func (inf *Inferencer) projectSingleUncached(y dtd.Name, kappa dtd.NameSet, steps []xpathl.Step) dtd.NameSet {
	c := inf.c
	s := steps[0]
	rest := steps[1:]
	selfEnv := Env{Tau: dtd.NewNameSet(y), Kappa: kappa}

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
		return env.Tau.Union(env.Kappa)
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
			sub := Env{Tau: dtd.NewNameSet(x), Kappa: kx}
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
			sub := Env{Tau: dtd.NewNameSet(x), Kappa: env.Kappa}
			if !inf.typePathSteps(sub, steps).Tau.Empty() {
				useful.Add(x)
			}
		}
		childStep := xpathl.Step{SStep: xpathl.SStep{Axis: xpath.Child, Test: xpath.NodeTestNode}}
		res := useful.Clone()
		res.AddAll(inf.project(useful, kappa.Union(useful), append([]xpathl.Step{childStep}, rest...)))
		return res

	case s.Axis == xpath.Ancestor:
		// Fifth primitive rule: ancs::node/P, symmetric via parent.
		env := c.TypeSimpleStep(selfEnv, s.SStep)
		useful := dtd.NewNameSet(y)
		for x := range env.Tau {
			sub := Env{Tau: dtd.NewNameSet(x), Kappa: env.Kappa}
			if !inf.typePathSteps(sub, steps).Tau.Empty() {
				useful.Add(x)
			}
		}
		parentStep := xpathl.Step{SStep: xpathl.SStep{Axis: xpath.Parent, Test: xpath.NodeTestNode}}
		res := useful.Clone()
		res.AddAll(inf.project(useful, env.Kappa.Intersect(kappa.Union(useful)), append([]xpathl.Step{parentStep}, rest...)))
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
func (inf *Inferencer) chainContext(kappaBefore, kappaAfter dtd.NameSet, x dtd.Name, axis xpath.Axis) dtd.NameSet {
	if axis.Upward() {
		single := dtd.NewNameSet(x)
		return kappaAfter.Intersect(single.Union(inf.c.D.Ancestors(single)))
	}
	out := kappaBefore.Clone()
	out.Add(x)
	return out
}

// typePathSteps runs the type system over a step slice (helper for the
// usefulness premises ({Xi},κ′) ⊢ P : Σ^i of Fig. 2).
func (inf *Inferencer) typePathSteps(env Env, steps []xpathl.Step) Env {
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
func (inf *Inferencer) projectCondPath(env Env, p xpathl.SimplePath) dtd.NameSet {
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
			root := RootEnv(inf.c.D)
			res.AddAll(inf.project(root.Tau, root.Kappa, steps))
			continue
		}
		res.AddAll(inf.project(env.Tau, env.Kappa, steps))
	}
	return res
}

// Infer computes the union projector for a set of XPathℓ paths — the
// whole-query (or query-bunch) analysis of §5.
func Infer(d *dtd.DTD, paths []*xpathl.Path) (*Projector, error) {
	return NewInferencer(d).inferAll(paths)
}

// InferNoContext is Infer with the Fig. 1 context machinery disabled —
// the naive upward typing the paper's §4.1 example rules out. It exists
// for the ablation benchmark quantifying the precision contexts buy; it
// is still sound, just coarser.
func InferNoContext(d *dtd.DTD, paths []*xpathl.Path) (*Projector, error) {
	inf := NewInferencer(d)
	inf.c.NoContext = true
	return inf.inferAll(paths)
}

func (inf *Inferencer) inferAll(paths []*xpathl.Path) (*Projector, error) {
	out := &Projector{D: inf.c.D, Names: dtd.NewNameSet(inf.c.D.Root)}
	for _, p := range paths {
		pr, err := inf.InferPath(p)
		if err != nil {
			return nil, err
		}
		out.Union(pr)
	}
	return out, nil
}

// Materialize widens a path so that the full subtrees of its results are
// kept (remark after Thm. 4.5): it appends descendant-or-self::node() —
// whose descendant variant realises A_E(τ″, descendant) — and, for
// attribute-bearing results, the attribute names.
func Materialize(p *xpathl.Path) *xpathl.Path {
	out := &xpathl.Path{Absolute: p.Absolute}
	out.Steps = append(out.Steps, p.Steps...)
	if n := len(out.Steps); n > 0 {
		last := out.Steps[n-1].SStep
		if last.Axis == xpath.DescendantOrSelf && last.Test.Kind == xpath.TestNode {
			return out // already materialised
		}
	}
	out.Steps = append(out.Steps, xpathl.Step{
		SStep: xpathl.SStep{Axis: xpath.DescendantOrSelf, Test: xpath.NodeTestNode},
	})
	return out
}

// InferMaterialized infers a projector that also keeps the subtrees (and
// attributes) of every result node, suitable for materialising query
// results.
func InferMaterialized(d *dtd.DTD, paths []*xpathl.Path) (*Projector, error) {
	widened := make([]*xpathl.Path, len(paths))
	for i, p := range paths {
		widened[i] = Materialize(p)
	}
	pr, err := Infer(d, widened)
	if err != nil {
		return nil, err
	}
	// A materialised subtree must keep its attributes as well: the
	// descendant closure of the base rule only covers tree children, so
	// add the attribute names of every result name and of its descendants
	// (the implementation-level attribute extension of §6).
	c := NewChecker(d)
	for _, p := range paths {
		result := c.Type(p)
		subtree := result.Union(d.ContentDescendants(result))
		pr.Names.AddAll(d.AttNames(subtree))
	}
	return pr, nil
}
