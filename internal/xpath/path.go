package xpath

import (
	"fmt"
	"slices"

	"xmlproj/internal/tree"
)

// Location paths. The step loop holds one invariant — the context set of
// every step is in document order and duplicate-free — and each step is
// written to hand the same on without sorting:
//
//   - self, attribute: one context's output lies between its neighbours'.
//   - descendant(-or-self) over an ordered set skips a context that lies
//     inside the previous kept context's ID interval (the staircase join):
//     what is left are disjoint subtrees in order.
//   - ancestor(-or-self) climbs from each context only as far as the first
//     node an earlier context already climbed through, and emits the new
//     nodes root first.
//   - following and preceding are emitted in document order per context.
//   - child, parent, the sibling axes, and any step whose predicates count
//     positions (which must see each context's matches as a group of their
//     own) can interleave or repeat when contexts nest or share a parent.
//
// SortDoc closes every step all the same: it is one linear check when the
// step kept order and the sort it used to be when it did not.

func (ev *Evaluator) evalPathExpr(pe PathExpr, ctx context) (Value, error) {
	steps := pe.Path.Steps
	switch {
	case pe.Filter != nil:
		v, err := ev.eval(pe.Filter, ctx)
		if err != nil {
			return nil, err
		}
		if len(pe.FilterPreds) == 0 && len(steps) == 0 {
			return v, nil
		}
		ns, ok := v.(NodeSet)
		if !ok {
			return nil, fmt.Errorf("xpath: filter expression %s is not a node-set", pe.Filter)
		}
		for _, pred := range pe.FilterPreds {
			// Into a set of its own: ns may be a variable's value.
			if ns, err = ev.filterPredicate(nil, ns, pred, false); err != nil {
				return nil, err
			}
		}
		if len(steps) == 0 {
			return ns, nil
		}
		return ev.evalSteps(steps, ns, false)
	case len(steps) == 0: // "/" alone, or nothing at all
		if pe.Path.Absolute {
			return NodeSet{ElemRef(ev.Doc.Root)}, nil
		}
		return NodeSet{ctx.node}, nil
	case pe.Path.Absolute:
		return ev.evalSteps(steps, nil, true)
	default:
		start := [1]NodeRef{ctx.node}
		return ev.evalSteps(steps, start[:], false)
	}
}

// evalSteps applies steps to start — or, with fromDoc, to the document
// node, which the data model does not carry: its one child is the root
// element, so /site selects the root element when that is its tag. Steps
// write into two buffers in turn and the result is copied out at its
// exact size, so a path costs one allocation however many steps it has.
func (ev *Evaluator) evalSteps(steps []Step, start NodeSet, fromDoc bool) (NodeSet, error) {
	if !slices.IsSortedFunc(start, compareRefs) {
		// A sequence bound by the XQuery layer is in no particular order.
		start = slices.Clone(start).SortDoc()
	}
	cur, w, r := start, ev.buffer(), ev.buffer()
	root := [1]NodeRef{ElemRef(ev.Doc.Root)}
	var err error
	for i := 0; i < len(steps) && err == nil; i++ {
		st, atDoc := &steps[i], fromDoc && i == 0
		var fused Step
		if fusable(steps[i:]) {
			fused = Step{Axis: Descendant, Test: steps[i+1].Test, Preds: steps[i+1].Preds}
			st = &fused
			i++
			if atDoc && root[0].N != nil {
				// The document node's descendant-or-self::node() is the
				// root element and all below it, and their children are
				// what is below the root element: //site is empty.
				cur, atDoc = root[:], false
			}
		}
		if atDoc {
			w, err = ev.docStep(w[:0], st)
		} else {
			w, err = ev.step(w[:0], cur, st)
		}
		cur = w
		w, r = r, w
	}
	var out NodeSet
	if err == nil {
		out = make(NodeSet, len(cur))
		copy(out, cur)
	}
	ev.free = append(ev.free, w, r)
	return out, err
}

// buffer returns a step buffer to append to: one used before if there is
// one, else nil.
func (ev *Evaluator) buffer() NodeSet {
	if n := len(ev.free); n > 0 {
		b := ev.free[n-1]
		ev.free = ev.free[:n-1]
		return b
	}
	return nil
}

// fusable reports whether steps begins descendant-or-self::node()/child::T[p…]
// — what // abbreviates — with no p that can tell the two groupings
// apart, so that it can be evaluated as descendant::T[p…] without
// materialising every node on the way. //bidder[1] is the first bidder
// of each parent and is not fusable.
func fusable(steps []Step) bool {
	if len(steps) < 2 {
		return false
	}
	a, b := &steps[0], &steps[1]
	return a.Axis == DescendantOrSelf && a.Test.Kind == TestNode && len(a.Preds) == 0 &&
		b.Axis == Child && !positional(b.Preds)
}

// positional reports whether one of preds may observe its context's
// proximity position or size. It errs towards yes: a predicate whose
// value may be a number is compared with the position, and position()
// or last() may be called anywhere in it but inside a nested path's own
// predicates, which have contexts of their own.
func positional(preds []Expr) bool {
	for _, p := range preds {
		if numeric(p) || readsPosition(p) {
			return true
		}
	}
	return false
}

// numeric reports whether e's value may be a number.
func numeric(e Expr) bool {
	switch x := e.(type) {
	case Literal:
		return false
	case Binary:
		return x.Op >= OpAdd && x.Op <= OpMod
	case PathExpr:
		return x.Filter != nil && len(x.FilterPreds) == 0 && len(x.Path.Steps) == 0 && numeric(x.Filter)
	case Call:
		switch functions[x.Name] {
		case notNumber:
			return false
		case asArgument:
			return len(x.Args) != 1 || numeric(x.Args[0])
		}
	}
	return true // a number, a negation, a variable, any other call
}

func readsPosition(e Expr) bool {
	switch x := e.(type) {
	case Neg:
		return readsPosition(x.E)
	case Binary:
		return readsPosition(x.L) || readsPosition(x.R)
	case PathExpr:
		return x.Filter != nil && readsPosition(x.Filter)
	case Call:
		if x.Name == "position" || x.Name == "last" {
			return true
		}
		return slices.ContainsFunc(x.Args, readsPosition)
	}
	return false
}

// docStep applies the first step of an absolute path to the document
// node: its child is the root element and its descendants are that
// element and everything below. Any other axis but self — approximated
// by the root element — is empty there.
func (ev *Evaluator) docStep(dst NodeSet, st *Step) (NodeSet, error) {
	root := ev.Doc.Root
	if root == nil {
		return dst, nil
	}
	switch st.Axis {
	case Child, Self:
		dst = ev.self(dst, root, st.Test)
	case Descendant, DescendantOrSelf:
		dst = ev.descend(dst, root, st.Test, true)
	}
	return ev.filter(dst, 0, st.Preds, false)
}

// step applies one step to an ordered context set.
func (ev *Evaluator) step(dst, cur NodeSet, st *Step) (NodeSet, error) {
	// When a predicate counts positions each context's matches are a group
	// of their own; when none does, a node matched from two contexts can
	// be left out of the second's group, and the downward and upward
	// closures use that to stay ordered.
	grouped := positional(st.Preds)
	kept, cover := tree.NodeID(-1), tree.NodeID(-1) // the last context descended from, and the last ID of its subtree
	floor := tree.NodeID(-1)                        // the largest ID climbed from so far
	for _, cn := range cur {
		at := len(dst)
		switch {
		case grouped:
			dst = ev.axisMatch(dst, cn, st.Axis, st.Test)
		case st.Axis == Descendant || st.Axis == DescendantOrSelf:
			if cn.IsAttr() || kept < cn.N.ID && cn.N.ID <= cover {
				continue // nothing below an attribute; inside the last subtree
			}
			kept, cover = cn.N.ID, cn.N.LastDescendant().ID
			dst = ev.descend(dst, cn.N, st.Test, st.Axis == DescendantOrSelf)
		case st.Axis == Ancestor || st.Axis == AncestorOrSelf:
			// A node on this climb was on an earlier context's exactly
			// when its ID is at most where that one started: stop there.
			dst, floor = ev.climb(dst, cn, st.Axis == AncestorOrSelf, st.Test, floor)
		default:
			dst = ev.axisMatch(dst, cn, st.Axis, st.Test)
		}
		var err error
		if dst, err = ev.filter(dst, at, st.Preds, st.Axis.Reverse()); err != nil {
			return dst, err
		}
	}
	return dst.SortDoc(), nil
}

// filter passes dst[at:] — one context's matches, in document order —
// through each predicate in turn, in place.
func (ev *Evaluator) filter(dst NodeSet, at int, preds []Expr, reverse bool) (NodeSet, error) {
	var err error
	for _, pred := range preds {
		if dst, err = ev.filterPredicate(dst[:at], dst[at:], pred, reverse); err != nil {
			break
		}
	}
	return dst, err
}

// filterPredicate appends to dst the members of ns — in document order,
// positions counted backwards for a reverse axis — that pass pred. dst
// may be the space just before ns: a kept node is never written past
// where it was read.
func (ev *Evaluator) filterPredicate(dst, ns NodeSet, pred Expr, reverse bool) (NodeSet, error) {
	size := len(ns)
	for i, r := range ns {
		pos := i + 1
		if reverse {
			pos = size - i
		}
		v, err := ev.eval(pred, context{node: r, pos: pos, size: size})
		if err != nil {
			return nil, err
		}
		keep := false
		if f, ok := v.(float64); ok {
			keep = float64(pos) == f
		} else {
			keep = ToBoolean(v)
		}
		if keep {
			dst = append(dst, r)
		}
	}
	return dst, nil
}

// testNode applies a node test to an element or text node on an axis
// whose principal node type is element.
func testNode(t NodeTest, n *tree.Node) bool {
	switch t.Kind {
	case TestNode:
		return true
	case TestStar:
		return n.Kind == tree.Element
	case TestName:
		return n.Kind == tree.Element && n.Tag == t.Name
	case TestText:
		return n.Kind == tree.Text
	}
	return false // comment(), processing-instruction(): not in the data model
}

// axisMatch appends to dst, in document order, the nodes on axis from r
// that pass t (a reverse axis too: filterPredicate counts its positions
// backwards). From an attribute node only self, parent and
// ancestor(-or-self) are non-empty; an attribute node passes node() on
// any axis and a name or * on the attribute axis alone.
func (ev *Evaluator) axisMatch(dst NodeSet, r NodeRef, axis Axis, t NodeTest) NodeSet {
	n := r.N
	if r.IsAttr() {
		switch axis {
		case Self:
			dst = ev.attrSelf(dst, r, t)
		case Parent:
			dst = ev.self(dst, n, t)
		case Ancestor, AncestorOrSelf:
			dst, _ = ev.climb(dst, r, axis == AncestorOrSelf, t, -1)
		}
		return dst
	}
	switch axis {
	case Self:
		dst = ev.self(dst, n, t)
	case Child:
		dst = ev.among(dst, n.Children, t)
	case Descendant, DescendantOrSelf:
		dst = ev.descend(dst, n, t, axis == DescendantOrSelf)
	case Parent:
		if n.Parent != nil {
			dst = ev.self(dst, n.Parent, t)
		}
	case Ancestor, AncestorOrSelf:
		dst, _ = ev.climb(dst, r, axis == AncestorOrSelf, t, -1)
	case FollowingSibling:
		if n.Parent != nil {
			dst = ev.among(dst, n.Parent.Children[n.Index+1:], t)
		}
	case PrecedingSibling:
		if n.Parent != nil {
			dst = ev.among(dst, n.Parent.Children[:n.Index], t)
		}
	case Following:
		for ; n.Parent != nil; n = n.Parent {
			for _, s := range n.Parent.Children[n.Index+1:] {
				dst = ev.descend(dst, s, t, true)
			}
		}
	case Preceding:
		dst = ev.preceding(dst, n, t)
	case Attribute:
		ev.Visited += int64(len(n.Attrs))
		for i, a := range n.Attrs {
			if t.Kind == TestNode || t.Kind == TestStar || t.Kind == TestName && a.Name == t.Name {
				dst = append(dst, NodeRef{N: n, AttrIdx: i})
			}
		}
	}
	return dst
}

func (ev *Evaluator) self(dst NodeSet, n *tree.Node, t NodeTest) NodeSet {
	ev.Visited++
	if testNode(t, n) {
		dst = append(dst, ElemRef(n))
	}
	return dst
}

// attrSelf is self for an attribute node, which passes node() alone off
// the attribute axis.
func (ev *Evaluator) attrSelf(dst NodeSet, r NodeRef, t NodeTest) NodeSet {
	ev.Visited++
	if t.Kind == TestNode {
		dst = append(dst, r)
	}
	return dst
}

func (ev *Evaluator) among(dst NodeSet, nodes []*tree.Node, t NodeTest) NodeSet {
	ev.Visited += int64(len(nodes))
	for _, c := range nodes {
		if testNode(t, c) {
			dst = append(dst, ElemRef(c))
		}
	}
	return dst
}

// descend appends the nodes below n, and n itself with self, that pass
// t.
func (ev *Evaluator) descend(dst NodeSet, n *tree.Node, t NodeTest, self bool) NodeSet {
	if self {
		dst = ev.self(dst, n, t)
	}
	return ev.walk(dst, n, t)
}

func (ev *Evaluator) walk(dst NodeSet, n *tree.Node, t NodeTest) NodeSet {
	ev.Visited += int64(len(n.Children))
	for _, c := range n.Children {
		if testNode(t, c) {
			dst = append(dst, ElemRef(c))
		}
		if len(c.Children) > 0 {
			dst = ev.walk(dst, c, t)
		}
	}
	return dst
}

// climb appends r's ancestors, and with orSelf r itself, that pass t and
// have an ID above floor, root first; it returns the larger of floor and
// the ID of the node the climb began at.
func (ev *Evaluator) climb(dst NodeSet, r NodeRef, orSelf bool, t NodeTest, floor tree.NodeID) (NodeSet, tree.NodeID) {
	from := r.N // an attribute's first ancestor is its element
	if !orSelf && !r.IsAttr() {
		from = from.Parent
	}
	dst = ev.ancestors(dst, from, t, floor)
	if orSelf && r.IsAttr() {
		dst = ev.attrSelf(dst, r, t)
	}
	if from != nil && from.ID > floor {
		floor = from.ID
	}
	return dst, floor
}

// ancestors appends n and its ancestors with an ID above floor that pass
// t, root first.
func (ev *Evaluator) ancestors(dst NodeSet, n *tree.Node, t NodeTest, floor tree.NodeID) NodeSet {
	if n == nil || n.ID <= floor {
		return dst
	}
	return ev.self(ev.ancestors(dst, n.Parent, t, floor), n, t)
}

// preceding appends what precedes n — the earlier siblings of n and of
// each ancestor, with what is below them — outermost first.
func (ev *Evaluator) preceding(dst NodeSet, n *tree.Node, t NodeTest) NodeSet {
	if n.Parent == nil {
		return dst
	}
	dst = ev.preceding(dst, n.Parent, t)
	for _, s := range n.Parent.Children[:n.Index] {
		dst = ev.descend(dst, s, t, true)
	}
	return dst
}
