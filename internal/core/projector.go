package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"xmlproj/internal/dtd"
	"xmlproj/internal/xpath"
	"xmlproj/internal/xpathl"
)

// Projector is an inferred type projector π for a DTD (Def. 2.6): the set
// of names whose nodes survive pruning.
//
// Names is π in the exchange form — what a projector file, the tree
// pruner and a hand-built π carry: a set that must exist without a
// grammar cannot be a bitset over one. Inference works on bit rows and
// renders Names once, at the end, keeping the row for Compiled.
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

	// row is Names over D.Symbols() when inference produced π; nil for a
	// π built by hand (its Names may hold what the grammar never declared).
	row dtd.Row

	compileOnce sync.Once
	compiled    *dtd.Projection

	fpOnce sync.Once
	fp     [2]string
}

// Compiled returns π compiled against the grammar's symbol table
// (≈ 6 µs, 18 allocations on the XMark DTD), computed once per
// projector.
func (p *Projector) Compiled() *dtd.Projection {
	p.compileOnce.Do(func() {
		if p.row != nil {
			p.compiled = p.D.Symbols().Project(p.row)
		} else {
			p.compiled = p.D.CompileProjection(p.Names)
		}
	})
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
	if p.row != nil && q.row != nil {
		p.row.Or(q.row)
	} else {
		p.row = nil
	}
}

// missing returns the root-reachable names π does not keep.
func (p *Projector) missing() dtd.Row {
	out := p.D.ReachableFromRoot().Clone()
	out.AndNot(p.Compiled().Row())
	return out
}

// KeepsAll reports whether π keeps every name a valid document can
// contain: pruning with it copies the document, so a caller that holds
// the input can skip the prune (/site//node() infers such a π).
func (p *Projector) KeepsAll() bool { return p.missing().Empty() }

// KeepRatio returns |π| / |DN(E) reachable from the root| — a static
// indicator of pruning selectivity.
func (p *Projector) KeepRatio() float64 {
	reach := p.D.ReachableFromRoot().Len() // ≥ 1: the root
	return float64(reach-p.missing().Len()) / float64(reach)
}

func (p *Projector) String() string { return p.Names.String() }

// Inferencer runs the Fig. 2 projector-inference rules. One Inferencer
// serves one inference: its memo and step numbering are not shared, so
// concurrent inferences over one grammar do not meet.
type Inferencer struct {
	c *Checker
	// memo caches ⊩ results keyed by (name, context, path suffix): the
	// symbol, κ's words and stepIDs' numbers of the remaining steps, as
	// bytes rendered into the scratch buffer key.
	memo    map[string]dtd.Row
	stepIDs map[xpathl.Step]uint32
	key     []byte
}

// NewInferencer returns an Inferencer over d.
func NewInferencer(d *dtd.DTD) *Inferencer {
	return &Inferencer{c: NewChecker(d), memo: map[string]dtd.Row{}, stepIDs: map[xpathl.Step]uint32{}}
}

// inferPath infers the projector for one XPathℓ path evaluated from the
// document root: ({X},{X}) ⊩E P : π (Thm. 4.5: querying the π-pruned
// document is equivalent to querying the original).
//
// descendant-or-self and ancestor-or-self steps are not covered by the
// Fig. 2 rules; each such step is expanded into its self and
// descendant/ancestor variants and the per-variant projectors are
// unioned (projectors are closed under union). A trailing
// descendant-or-self::node() — the materialisation marker of §5 — thereby
// realises exactly the remark after Thm. 4.5: π = τ′ ∪ A_E(τ″, descendant).
func (inf *Inferencer) inferPath(p *xpathl.Path) (dtd.Row, error) {
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
	root := RootEnv(inf.c.s)
	row := root.Tau.Clone()
	for _, variant := range expandOrSelf(p.Steps) {
		row.Or(inf.project(root.Tau, root.Kappa, variant))
	}
	return row, nil
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

// project implements Σ ⊩E P : τ for an expanded (or-self-free) path.
func (inf *Inferencer) project(tau, kappa dtd.Row, steps []xpathl.Step) dtd.Row {
	out := inf.c.s.NewRow()
	if len(steps) == 0 {
		return out
	}
	// Third rule of Fig. 2: decompose the type into singletons.
	for y := tau.Next(0); y >= 0; y = tau.Next(y + 1) {
		out.Or(inf.projectSingle(y, kappa, steps))
	}
	return out
}

func (inf *Inferencer) projectSingle(y int32, kappa dtd.Row, steps []xpathl.Step) dtd.Row {
	inf.key = inf.appendKey(inf.key[:0], y, kappa, steps)
	if cached, ok := inf.memo[string(inf.key)]; ok {
		return cached
	}
	// The buffer is reused by the rules below; the memo owns this copy.
	// Seed the memo against (impossible in well-founded paths, but cheap)
	// re-entrancy with the empty set.
	key := string(inf.key)
	inf.memo[key] = inf.c.none
	res := inf.projectSingleUncached(y, kappa, steps)
	inf.memo[key] = res
	return res
}

// appendKey renders a memo key. xpathl.Step is comparable (a condition
// is compared by identity, and one inference sees each condition through
// one pointer), so steps are numbered as they are first met.
func (inf *Inferencer) appendKey(key []byte, y int32, kappa dtd.Row, steps []xpathl.Step) []byte {
	key = binary.LittleEndian.AppendUint32(key, uint32(y))
	for _, w := range kappa {
		key = binary.LittleEndian.AppendUint64(key, w)
	}
	for _, s := range steps {
		id, ok := inf.stepIDs[s]
		if !ok {
			id = uint32(len(inf.stepIDs))
			inf.stepIDs[s] = id
		}
		key = binary.LittleEndian.AppendUint32(key, id)
	}
	return key
}

var (
	selfNode   = xpathl.Step{SStep: xpathl.SStep{Axis: xpath.Self, Test: xpath.NodeTestNode}}
	childNode  = xpathl.Step{SStep: xpathl.SStep{Axis: xpath.Child, Test: xpath.NodeTestNode}}
	parentNode = xpathl.Step{SStep: xpathl.SStep{Axis: xpath.Parent, Test: xpath.NodeTestNode}}
)

// before returns the steps first followed by rest, as a fresh slice.
func before(rest []xpathl.Step, first ...xpathl.Step) []xpathl.Step {
	return append(first, rest...)
}

func (inf *Inferencer) projectSingleUncached(y int32, kappa dtd.Row, steps []xpathl.Step) dtd.Row {
	c := inf.c
	s := steps[0]
	rest := steps[1:]
	selfEnv := Env{Tau: c.s.NewRow(y), Kappa: kappa}

	// Encoded rules: normalise to the three primitive forms.
	if s.Cond != nil && !(s.Axis == xpath.Self && s.Test.Kind == xpath.TestNode) {
		// Axis::Test[Cond]/P ⇒ Axis::Test/self::node[Cond]/P.
		cond := selfNode
		cond.Cond = s.Cond
		return inf.projectSingle(y, kappa, before(rest, xpathl.Step{SStep: s.SStep}, cond))
	}
	if s.Cond == nil && s.Axis != xpath.Self && s.Test.Kind != xpath.TestNode {
		// Axis::Test/P ⇒ Axis::node/self::Test/P.
		return inf.projectSingle(y, kappa, before(rest,
			xpathl.Step{SStep: xpathl.SStep{Axis: s.Axis, Test: xpath.NodeTestNode}},
			xpathl.Step{SStep: xpathl.SStep{Axis: xpath.Self, Test: s.Test}}))
	}

	// Base rule (single step): Σ ⊢ Step : (τ,κ′) ⟹ Σ ⊩ Step : τ ∪ κ′.
	// Step[Cond] is encoded as Step[Cond]/self::node() (second base rule).
	if len(rest) == 0 {
		if s.Cond != nil {
			return inf.projectSingle(y, kappa, []xpathl.Step{s, selfNode})
		}
		env := c.TypeSimpleStep(selfEnv, s.SStep)
		return union(env.Tau, env.Kappa)
	}

	switch {
	case s.Axis == xpath.Self && s.Cond == nil:
		// First primitive rule: self::Test/P.
		env := c.TypeStep(selfEnv, s)
		res := inf.project(env.Tau, env.Kappa, rest)
		res.Add(y)
		return res

	case s.Axis == xpath.Self && s.Cond != nil:
		// Second primitive rule: self::node[P1 or … or Pn]/P.
		env := c.TypeCondStep(selfEnv, s.Cond)
		res := inf.project(env.Tau, env.Kappa, rest)
		res.Add(y)
		if !env.Tau.Empty() {
			for _, d := range s.Cond.Disjuncts {
				res.Or(inf.projectCondPath(env, d))
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
		res := c.s.NewRow(y)
		for x := env.Tau.Next(0); x >= 0; x = env.Tau.Next(x + 1) {
			kx := inf.chainContext(kappa, env.Kappa, x, s.Axis)
			sub := Env{Tau: c.s.NewRow(x), Kappa: kx}
			if inf.c.typeSteps(sub, rest).Tau.Empty() {
				continue
			}
			res.Add(x)
			res.Or(inf.projectSingle(x, kx, rest))
		}
		return res

	case s.Axis == xpath.Descendant:
		// Fourth primitive rule: desc::node/P ⇒ keep the useful
		// intermediate names, then continue with child::node/P from them.
		// The chain to any selected node passes only through useful names
		// (each intermediate has the selection as a descendant), so the
		// continuation context is κ ∪ useful, not κ ∪ A_E(τ, descendant).
		env := c.TypeSimpleStep(selfEnv, s.SStep)
		useful := inf.useful(y, env, steps)
		res := inf.project(useful, union(kappa, useful), before(rest, childNode))
		res.Or(useful)
		return res

	case s.Axis == xpath.Ancestor:
		// Fifth primitive rule: ancs::node/P, symmetric via parent.
		env := c.TypeSimpleStep(selfEnv, s.SStep)
		useful := inf.useful(y, env, steps)
		within := union(kappa, useful)
		within.And(env.Kappa)
		res := inf.project(useful, within, before(rest, parentNode))
		res.Or(useful)
		return res
	}
	// Unreachable given checkAxis + expandOrSelf.
	panic(fmt.Sprintf("core: unhandled step %s", s))
}

// useful returns y and the names of env.Tau from which the whole of
// steps still selects something — the premises ({Xi},κ′) ⊢ P : Σ^i of
// the descendant and ancestor rules.
func (inf *Inferencer) useful(y int32, env Env, steps []xpathl.Step) dtd.Row {
	useful := inf.c.s.NewRow(y)
	for x := env.Tau.Next(0); x >= 0; x = env.Tau.Next(x + 1) {
		sub := Env{Tau: inf.c.s.NewRow(x), Kappa: env.Kappa}
		if !inf.c.typeSteps(sub, steps).Tau.Empty() {
			useful.Add(x)
		}
	}
	return useful
}

// chainContext computes the continuation context for a single name x
// reached by one step from a node whose pre-step context was kappaBefore
// (post-step shared context kappaAfter): downward steps extend the chain
// by exactly x; upward steps restrict the post-step context to x's
// chains.
func (inf *Inferencer) chainContext(kappaBefore, kappaAfter dtd.Row, x int32, axis xpath.Axis) dtd.Row {
	if axis.Upward() {
		return inf.c.chainsOf(kappaAfter, x)
	}
	out := kappaBefore.Clone()
	out.Add(x)
	return out
}

// projectCondPath infers the projector of one condition disjunct
// (Σ ⊩ Pi : τi in the second primitive rule). Absolute disjuncts run from
// the root environment.
func (inf *Inferencer) projectCondPath(env Env, p xpathl.SimplePath) dtd.Row {
	res := inf.c.s.NewRow()
	if len(p.Steps) == 0 {
		return res
	}
	if p.Absolute {
		env = RootEnv(inf.c.s)
	}
	steps := make([]xpathl.Step, len(p.Steps))
	for i, s := range p.Steps {
		steps[i] = xpathl.Step{SStep: s}
	}
	for _, variant := range expandOrSelf(steps) {
		res.Or(inf.project(env.Tau, env.Kappa, variant))
	}
	return res
}

// Infer computes the union projector for a set of XPathℓ paths — the
// whole-query (or query-bunch) analysis of §5.
func Infer(d *dtd.DTD, paths []*xpathl.Path) (*Projector, error) {
	return NewInferencer(d).infer(paths)
}

// InferNoContext is Infer with the Fig. 1 context machinery disabled —
// the naive upward typing the paper's §4.1 example rules out. It exists
// for the ablation benchmark quantifying the precision contexts buy; it
// is still sound, just coarser.
func InferNoContext(d *dtd.DTD, paths []*xpathl.Path) (*Projector, error) {
	inf := NewInferencer(d)
	inf.c.NoContext = true
	return inf.infer(paths)
}

func (inf *Inferencer) infer(paths []*xpathl.Path) (*Projector, error) {
	row, err := inf.inferAll(paths)
	if err != nil {
		return nil, err
	}
	return inf.render(row), nil
}

// render turns an inferred row into the exchange form: the one place the
// analysis produces names, once per inference.
func (inf *Inferencer) render(row dtd.Row) *Projector {
	return &Projector{D: inf.c.D, Names: inf.c.s.NameSet(row), row: row}
}

func (inf *Inferencer) inferAll(paths []*xpathl.Path) (dtd.Row, error) {
	out := inf.c.s.NewRow(inf.c.s.Root())
	for _, p := range paths {
		row, err := inf.inferPath(p)
		if err != nil {
			return nil, err
		}
		out.Or(row)
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
	inf := NewInferencer(d)
	row, err := inf.inferAll(widened)
	if err != nil {
		return nil, err
	}
	// A materialised subtree must keep its attributes as well: the
	// descendant closure of the base rule only covers tree children, so
	// add the attribute names of every result name and of its descendants
	// (the implementation-level attribute extension of §6).
	s := inf.c.s
	for _, p := range paths {
		result := inf.c.Type(p)
		subtree := union(result, s.Descendants.Image(result))
		row.Or(s.Atts.Image(subtree))
	}
	return inf.render(row), nil
}
