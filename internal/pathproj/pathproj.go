// Package pathproj implements the comparison baseline of the paper's
// §1.1/§5: Marian & Siméon's path-based projection (VLDB '03). Projection
// paths are extracted from the query, but — unlike type projectors — the
// pruner knows nothing about the schema:
//
//   - predicates cannot be used: a path step carrying a predicate keeps
//     the whole subtree from that step (the degeneration the paper
//     describes for descendant::node()[cond]);
//   - backward and sibling axes are unsupported: the path is truncated at
//     the offending step and the subtree is kept;
//   - every // step forces the pruner to visit all descendants of a node
//     to decide whether it contains a useful descendant, so pruning cost
//     is a full traversal of the document regardless of selectivity.
//
// The package exists so the benchmark harness can reproduce the paper's
// precision and pruning-overhead comparisons.
//
// Defended by: §1.1 (path projection, the baseline the paper compares with).
package pathproj

import (
	"xmlproj/internal/tree"
	"xmlproj/internal/xpath"
	"xmlproj/internal/xpathl"
)

// StepKind is how a projection-path step consumes nodes.
type StepKind uint8

const (
	// Child matches a child of the current node.
	Child StepKind = iota
	// Descendant matches any proper descendant (from //).
	Descendant
	// Self re-tests the current node.
	Self
)

// Step is one step of a projection path.
type Step struct {
	Kind StepKind
	Test xpath.NodeTest
}

// Path is one projection path. KeepSubtree marks "#"-terminated paths
// whose full result subtrees are needed.
type Path struct {
	Steps       []Step
	KeepSubtree bool
}

// FromXPathL lowers XPathℓ data-need paths to projection paths,
// degrading wherever the baseline cannot express the construct. A
// descendant-or-self step is expanded into its self and descendant
// variants (two baseline paths). The second result reports whether the
// lowering was exact (no degradation).
func FromXPathL(paths []*xpathl.Path) ([]Path, bool) {
	var out []Path
	exact := true
	for _, p := range paths {
		bps, ex := lower(p)
		exact = exact && ex
		out = append(out, bps...)
	}
	return out, exact
}

func lower(p *xpathl.Path) ([]Path, bool) {
	variants := []Path{{}}
	exact := true
	appendAll := func(steps ...Step) {
		for i := range variants {
			if variants[i].KeepSubtree {
				continue
			}
			variants[i].Steps = append(append([]Step{}, variants[i].Steps...), steps...)
		}
	}
	keepAll := func() {
		for i := range variants {
			variants[i].KeepSubtree = true
		}
	}
	for i, s := range p.Steps {
		if s.Cond != nil {
			// Predicates are not usable: keep the subtree from here (the
			// step itself, when expressible, still narrows the match
			// point).
			exact = false
			if bs, ok := lowerStep(s.SStep); ok {
				appendAll(bs...)
			}
			keepAll()
			return variants, exact
		}
		if i == len(p.Steps)-1 && s.Axis == xpath.DescendantOrSelf && s.Test.Kind == xpath.TestNode {
			// Trailing descendant-or-self::node() is the materialisation
			// marker: whole result subtrees are needed ("#" in [14]).
			keepAll()
			continue
		}
		if s.Axis == xpath.DescendantOrSelf {
			// Split into self and descendant variants.
			var next []Path
			for _, v := range variants {
				selfVar := v
				selfVar.Steps = append(append([]Step{}, v.Steps...), Step{Kind: Self, Test: s.Test})
				descVar := v
				descVar.Steps = append(append([]Step{}, v.Steps...), Step{Kind: Descendant, Test: s.Test})
				next = append(next, selfVar, descVar)
			}
			variants = next
			continue
		}
		bs, ok := lowerStep(s.SStep)
		if !ok {
			// Backward/sibling/attribute step: not expressible, keep
			// everything from here.
			keepAll()
			return variants, false
		}
		appendAll(bs...)
	}
	return variants, exact
}

func lowerStep(s xpathl.SStep) ([]Step, bool) {
	switch s.Axis {
	case xpath.Child:
		return []Step{{Kind: Child, Test: s.Test}}, true
	case xpath.Descendant:
		return []Step{{Kind: Descendant, Test: s.Test}}, true
	case xpath.Self:
		if s.Test.Kind == xpath.TestNode {
			return nil, true
		}
		return []Step{{Kind: Self, Test: s.Test}}, true
	default:
		// parent, ancestor(-or-self), attribute: not expressible.
		return nil, false
	}
}

// Stats reports the work a baseline prune did.
type Stats struct {
	// Visited counts nodes examined: the baseline must traverse the whole
	// document (it cannot skip subtrees under //).
	Visited int64
	// Kept counts nodes retained.
	Kept int64
}

// Prune projects doc against the paths: a node survives when it lies on a
// root-to-match prefix, is a match, is below a KeepSubtree match, or has
// a surviving descendant. The traversal is complete — this is the
// overhead the paper contrasts with the one-pass type-driven pruner. A
// node's fate is known only once its subtree has been walked, so the walk
// marks and a second pass builds what it marked, with the original's
// node IDs.
func Prune(doc *tree.Document, paths []Path) (*tree.Document, Stats) {
	var stats Stats
	b := tree.NewBuilder(0)
	root := doc.Root()
	if !root.Valid() {
		return b.Document(), stats
	}
	// Initial states: every path at position 0, applied to the root via
	// its Self prefix.
	var rootStates []state
	for pi := range paths {
		if s, alive := advanceSelf(&paths[pi], state{path: pi, idx: 0}, root); alive {
			rootStates = append(rootStates, s)
		}
	}
	kept := make([]bool, doc.NumNodes())
	if markNode(root, paths, rootStates, kept, &stats) {
		build(b, root, kept)
	}
	return b.Document(), stats
}

type state struct {
	path int
	idx  int
}

// advanceSelf applies consecutive Self steps of the path to node n; the
// Self kind also models descendant-or-self (stay OR descend), which is
// handled by keeping the state alive in child transitions.
func advanceSelf(p *Path, s state, n tree.Node) (state, bool) {
	for s.idx < len(p.Steps) && p.Steps[s.idx].Kind == Self {
		if !matchTest(p.Steps[s.idx].Test, n) {
			return s, false
		}
		s.idx++
	}
	return s, true
}

func matchTest(t xpath.NodeTest, n tree.Node) bool {
	switch t.Kind {
	case xpath.TestNode:
		return true
	case xpath.TestText:
		return n.Kind() == tree.Text
	case xpath.TestStar:
		return n.Kind() == tree.Element
	case xpath.TestName:
		return n.Kind() == tree.Element && n.Tag() == t.Name
	}
	return false
}

// markNode walks the full tree, threading NFA states downwards and the
// keep decision upwards, and reports whether n is kept.
func markNode(n tree.Node, paths []Path, states []state, kept []bool, stats *Stats) bool {
	stats.Visited++
	matched := false
	subtree := false
	for _, s := range states {
		if s.idx >= len(paths[s.path].Steps) {
			matched = true
			if paths[s.path].KeepSubtree {
				subtree = true
			}
		}
	}
	if subtree {
		// Whole subtree kept verbatim (still counts as visited: the
		// baseline copies it out node by node).
		for i := n.Index(); i <= n.LastDescendant().Index(); i++ {
			stats.Visited++
			stats.Kept++
			kept[i] = true
		}
		return true
	}

	anyChild := false
	for c := n.FirstChild(); c.Valid(); c = c.NextSibling() {
		var next []state
		for _, s := range states {
			p := &paths[s.path]
			if s.idx >= len(p.Steps) {
				continue
			}
			st := p.Steps[s.idx]
			switch st.Kind {
			case Child:
				if matchTest(st.Test, c) {
					if ns, alive := advanceSelf(p, state{s.path, s.idx + 1}, c); alive {
						next = append(next, ns)
					}
				}
			case Descendant:
				// Stay (deeper descendants may match) …
				next = append(next, s)
				// … and advance on a match.
				if matchTest(st.Test, c) {
					if ns, alive := advanceSelf(p, state{s.path, s.idx + 1}, c); alive {
						next = append(next, ns)
					}
				}
			}
		}
		// Completed states propagate to children only via KeepSubtree,
		// handled above.
		if markNode(c, paths, next, kept, stats) {
			anyChild = true
		}
	}
	if matched || anyChild {
		stats.Kept++
		kept[n.Index()] = true
		return true
	}
	return false
}

// build builds the kept node n, keeping its ID, and what is kept below.
func build(b *tree.Builder, n tree.Node, kept []bool) {
	if n.Kind() == tree.Text {
		b.TextString(n.Data())
		b.SetID(n.ID())
		return
	}
	b.Start(n.Tag())
	b.SetID(n.ID())
	for i := range n.NumAttrs() {
		a := n.AttrAt(i)
		b.Attr(a.Name, a.Value)
	}
	for c := n.FirstChild(); c.Valid(); c = c.NextSibling() {
		if kept[c.Index()] {
			build(b, c, kept)
		}
	}
	b.EndElement()
}
