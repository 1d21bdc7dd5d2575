// Package xpathl implements XPathℓ, the fragment of XPath the paper's
// static analysis operates on (§3): paths of upward/downward steps whose
// predicates are unnested disjunctions of simple paths.
//
// The package also implements the two sound approximations that map full
// XPath into XPathℓ:
//
//   - Fig. 3's path extraction E(e, Γ, m) over XPath expressions
//     (Extract), using the per-function table F(f, i). §3.3's P(Exp) is
//     the same walk read at a predicate: it turns an arbitrary predicate
//     into a disjunction of simple paths. The XQuery layer's embedded
//     expressions go through the same walk, with its Γ;
//   - §4.3: the rewriting of the sibling, preceding and following axes
//     into parent/child/ancestor-or-self/descendant-or-self steps.
//
// Defended by: §3 and §4.3 (the XPathℓ fragment the analysis reads).
package xpathl

import (
	"strings"

	"xmlproj/internal/xpath"
)

// SStep is a simple step Axis::Test without predicate. Allowed axes:
// child, descendant, parent, ancestor, self, descendant-or-self,
// ancestor-or-self, attribute.
type SStep struct {
	Axis xpath.Axis
	Test xpath.NodeTest
}

func (s SStep) String() string {
	return s.Axis.String() + "::" + testString(s.Test)
}

func testString(t xpath.NodeTest) string {
	// The paper writes node/text without parentheses; we keep the XPath
	// form so rendered paths re-parse.
	return t.String()
}

// SimplePath is a predicate-free path (SPath in the paper's grammar),
// possibly absolute.
type SimplePath struct {
	Absolute bool
	Steps    []SStep
}

func (p SimplePath) String() string {
	var sb strings.Builder
	if p.Absolute {
		sb.WriteString("/")
	}
	for i, s := range p.Steps {
		if i > 0 {
			sb.WriteString("/")
		}
		sb.WriteString(s.String())
	}
	return sb.String()
}

// SelfNode is the always-true condition path self::node().
func SelfNode() SimplePath {
	return SimplePath{Steps: []SStep{{Axis: xpath.Self, Test: xpath.NodeTestNode}}}
}

// Prefix returns prefix/p (prefix must be relative-compatible: if p is
// absolute, p is returned unchanged, since absolute paths ignore context).
func (p SimplePath) Prefix(prefix []SStep) SimplePath {
	if p.Absolute {
		return p
	}
	steps := make([]SStep, 0, len(prefix)+len(p.Steps))
	steps = append(steps, prefix...)
	for _, s := range p.Steps {
		if s.Axis == xpath.Self && s.Test.Kind == xpath.TestNode && len(steps) > 0 {
			continue
		}
		steps = append(steps, s)
	}
	if len(steps) == 0 {
		return SelfNode()
	}
	return SimplePath{Steps: steps}
}

// Cond is an XPathℓ condition: a disjunction of simple paths.
type Cond struct {
	Disjuncts []SimplePath
}

func (c *Cond) String() string {
	parts := make([]string, len(c.Disjuncts))
	for i, p := range c.Disjuncts {
		parts[i] = p.String()
	}
	return strings.Join(parts, " or ")
}

// add inserts a disjunct, dropping duplicates.
func (c *Cond) add(p SimplePath) {
	s := p.String()
	for _, q := range c.Disjuncts {
		if q.String() == s {
			return
		}
	}
	c.Disjuncts = append(c.Disjuncts, p)
}

// Step is an XPathℓ step with an optional condition.
type Step struct {
	SStep
	Cond *Cond
}

func (s Step) String() string {
	base := s.SStep.String()
	if s.Cond == nil {
		return base
	}
	return base + "[" + s.Cond.String() + "]"
}

// Path is an XPathℓ path.
type Path struct {
	Absolute bool
	Steps    []Step
}

func (p *Path) String() string {
	var sb strings.Builder
	if p.Absolute {
		sb.WriteString("/")
	}
	for i, s := range p.Steps {
		if i > 0 {
			sb.WriteString("/")
		}
		sb.WriteString(s.String())
	}
	return sb.String()
}

// Clone returns a copy of the path sharing no mutable state (conditions
// are shared: they are never mutated after construction).
func (p *Path) Clone() *Path {
	out := &Path{Absolute: p.Absolute}
	out.Steps = append(out.Steps, p.Steps...)
	return out
}

// AppendStep returns p extended with a trailing step; appending
// self::node(), or descendant-or-self::node() to a materialised path, is
// the identity.
func (p *Path) AppendStep(s SStep) *Path {
	if s == selfStep && len(p.Steps) > 0 || s == dosStep && p.Materialized() {
		return p.Clone()
	}
	out := p.Clone()
	out.Steps = append(out.Steps, Step{SStep: s})
	return out
}

// Materialized reports whether p ends in descendant-or-self::node(), the
// materialisation marker of §5: p keeps the whole subtrees of its results.
func (p *Path) Materialized() bool {
	n := len(p.Steps)
	return n > 0 && p.Steps[n-1].Cond == nil && p.Steps[n-1].SStep == dosStep
}

// Concat returns prefix/rel. If rel is absolute it ignores the prefix
// (absolute paths restart at the root), and from the document node
// alone it is rel made absolute.
func Concat(prefix, rel *Path) *Path {
	if rel.Absolute {
		return rel.Clone()
	}
	if prefix.Absolute && len(prefix.Steps) == 0 {
		return MakeAbsolute(rel)
	}
	out := prefix.Clone()
	for _, s := range rel.Steps {
		if s.Axis == xpath.Self && s.Test.Kind == xpath.TestNode && s.Cond == nil && len(out.Steps) > 0 {
			continue
		}
		out.Steps = append(out.Steps, s)
	}
	return out
}

// RewriteAxis translates one full-XPath step into the equivalent (or
// soundly approximating) sequence of XPathℓ simple steps (§4.3). The node
// test lands on the last returned step.
func RewriteAxis(axis xpath.Axis, test xpath.NodeTest) []SStep {
	nodeStep := func(a xpath.Axis) SStep { return SStep{Axis: a, Test: xpath.NodeTestNode} }
	switch axis {
	case xpath.FollowingSibling, xpath.PrecedingSibling:
		// §4.3 second pass: Axis-sibling::Test ⇒ parent::node()/child::Test.
		return []SStep{nodeStep(xpath.Parent), {Axis: xpath.Child, Test: test}}
	case xpath.Following, xpath.Preceding:
		// §4.3 first pass (W3C): ancestor-or-self::node()/
		// (Axis-sibling)::node()/descendant-or-self::Test, then the second
		// pass on the sibling step.
		return []SStep{
			nodeStep(xpath.AncestorOrSelf),
			nodeStep(xpath.Parent),
			nodeStep(xpath.Child),
			{Axis: xpath.DescendantOrSelf, Test: test},
		}
	default:
		return []SStep{{Axis: axis, Test: test}}
	}
}
