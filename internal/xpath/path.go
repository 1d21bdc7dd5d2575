package xpath

import (
	"fmt"
	"math"
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
			return NodeSet{ElemRef(ev.Doc.Root())}, nil
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
	root := [1]NodeRef{ElemRef(ev.Doc.Root())}
	var err error
	for i := 0; i < len(steps) && err == nil; i++ {
		st, atDoc := &steps[i], fromDoc && i == 0
		var fused Step
		if fusable(steps[i:]) {
			fused = Step{Axis: Descendant, Test: steps[i+1].Test, Preds: steps[i+1].Preds}
			st = &fused
			i++
			if atDoc && ev.Doc.NumNodes() > 0 {
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
		switch library[x.Name].kind {
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
	if ev.Doc.NumNodes() == 0 {
		return dst, nil
	}
	t := test{NodeTest: st.Test}
	t.on(ev.Doc)
	switch st.Axis {
	case Child, Self:
		dst = ev.self(dst, 0, &t)
	case Descendant, DescendantOrSelf:
		dst = ev.descend(dst, 0, &t, true)
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
	t := test{NodeTest: st.Test}
	kept, cover := tree.NodeID(-1), tree.NodeID(-1) // the last context descended from, and the last ID of its subtree
	floor := tree.NodeID(-1)                        // the largest ID climbed from so far
	for _, cn := range cur {
		at := len(dst)
		t.on(cn.doc)
		switch {
		case grouped:
			dst = ev.axisMatch(dst, cn, st.Axis, &t)
		case st.Axis == Descendant || st.Axis == DescendantOrSelf:
			if id := cn.id(); cn.IsAttr() || kept < id && id <= cover {
				continue // nothing below an attribute; inside the last subtree
			}
			kept, cover = cn.id(), cn.doc.IDAt(cn.doc.EndAt(cn.node))
			dst = ev.descend(dst, cn.node, &t, st.Axis == DescendantOrSelf)
		case st.Axis == Ancestor || st.Axis == AncestorOrSelf:
			// A node on this climb was on an earlier context's exactly
			// when its ID is at most where that one started: stop there.
			dst, floor = ev.climb(dst, cn, st.Axis == AncestorOrSelf, &t, floor)
		default:
			dst = ev.axisMatch(dst, cn, st.Axis, &t)
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

// test is a node test bound to one document, on an axis whose principal
// node type is element: the range of name numbers it passes (text is -1,
// an element's tag its number there), so a name test looks its name up
// once for each document a step meets and every test is one comparison.
type test struct {
	NodeTest
	doc    *tree.Document
	lo, hi int32
}

// on binds t to d.
func (t *test) on(d *tree.Document) {
	if d == t.doc {
		return
	}
	t.doc = d
	switch t.Kind {
	case TestNode:
		t.lo, t.hi = -1, math.MaxInt32
	case TestStar:
		t.lo, t.hi = 0, math.MaxInt32
	case TestName:
		t.lo = d.Name(t.Name)
		t.hi = t.lo
	case TestText:
		t.lo, t.hi = -1, -1
	default: // comment(), processing-instruction(): not in the data model
		t.lo, t.hi = 0, -1
	}
}

// pass applies t to the i-th record of its document.
func (t *test) pass(i int32) bool {
	n := t.doc.NameAt(i)
	return t.lo <= n && n <= t.hi
}

// axisMatch appends to dst, in document order, the nodes on axis from r
// that pass t, bound to r's document (a reverse axis too: filterPredicate
// counts its positions backwards). From an attribute node only self,
// parent and ancestor(-or-self) are non-empty; an attribute node passes
// node() on any axis and a name or * on the attribute axis alone.
func (ev *Evaluator) axisMatch(dst NodeSet, r NodeRef, axis Axis, t *test) NodeSet {
	d, n := r.doc, r.node
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
	parent := d.ParentAt(n)
	switch axis {
	case Self:
		dst = ev.self(dst, n, t)
	case Child:
		dst = ev.among(dst, n+1, d.EndAt(n), t)
	case Descendant, DescendantOrSelf:
		dst = ev.descend(dst, n, t, axis == DescendantOrSelf)
	case Parent:
		if parent >= 0 {
			dst = ev.self(dst, parent, t)
		}
	case Ancestor, AncestorOrSelf:
		dst, _ = ev.climb(dst, r, axis == AncestorOrSelf, t, -1)
	case FollowingSibling:
		if parent >= 0 {
			dst = ev.among(dst, d.EndAt(n)+1, d.EndAt(parent), t)
		}
	case PrecedingSibling:
		if parent >= 0 {
			dst = ev.among(dst, parent+1, n-1, t)
		}
	case Following:
		// What follows n in its tree is everything after its subtree.
		dst = ev.below(dst, d.EndAt(n)+1, d.EndAt(treeRoot(d, n)), t)
	case Preceding:
		dst = ev.preceding(dst, n, t)
	case Attribute:
		e := d.At(n)
		ev.Visited += int64(e.NumAttrs())
		for i := range e.NumAttrs() {
			if t.Kind == TestNode || t.Kind == TestStar || t.Kind == TestName && e.AttrAt(i).Name == t.Name {
				dst = append(dst, AttrRef(e, i))
			}
		}
	}
	return dst
}

// treeRoot returns the root of the tree that holds record n.
func treeRoot(d *tree.Document, n int32) int32 {
	for p := d.ParentAt(n); p >= 0; p = d.ParentAt(p) {
		n = p
	}
	return n
}

func (ev *Evaluator) self(dst NodeSet, n int32, t *test) NodeSet {
	ev.Visited++
	if t.pass(n) {
		dst = append(dst, ref(t.doc, n))
	}
	return dst
}

// attrSelf is self for an attribute node, which passes node() alone off
// the attribute axis.
func (ev *Evaluator) attrSelf(dst NodeSet, r NodeRef, t *test) NodeSet {
	ev.Visited++
	if t.Kind == TestNode {
		dst = append(dst, r)
	}
	return dst
}

// among appends the siblings from record lo up to record hi, a run of
// whole subtrees, that pass t.
func (ev *Evaluator) among(dst NodeSet, lo, hi int32, t *test) NodeSet {
	for c := lo; c <= hi; c = t.doc.EndAt(c) + 1 {
		dst = ev.self(dst, c, t)
	}
	return dst
}

// descend appends the nodes below n, and n itself with self, that pass
// t.
func (ev *Evaluator) descend(dst NodeSet, n int32, t *test, self bool) NodeSet {
	if self {
		dst = ev.self(dst, n, t)
	}
	return ev.below(dst, n+1, t.doc.EndAt(n), t)
}

// below appends the nodes in records lo to hi that pass t. A subtree, and
// a run of subtrees that follow one another, is one range of the table,
// so the descendant axis is one loop.
func (ev *Evaluator) below(dst NodeSet, lo, hi int32, t *test) NodeSet {
	ev.Visited += int64(max(hi-lo+1, 0))
	if t.Kind == TestNode {
		// Every record passes node(): the range is the output, grown once
		// (/site//node() is every node of the document).
		dst = slices.Grow(dst, int(max(hi-lo+1, 0)))
	}
	for i := lo; i <= hi; i++ {
		if t.pass(i) {
			dst = append(dst, ref(t.doc, i))
		}
	}
	return dst
}

// climb appends r's ancestors, and with orSelf r itself, that pass t and
// have an ID above floor, root first; it returns the larger of floor and
// the ID of the node the climb began at.
func (ev *Evaluator) climb(dst NodeSet, r NodeRef, orSelf bool, t *test, floor tree.NodeID) (NodeSet, tree.NodeID) {
	from := r.node // an attribute's first ancestor is its element
	if !orSelf && !r.IsAttr() {
		from = r.doc.ParentAt(from)
	}
	dst = ev.ancestors(dst, from, t, floor)
	if orSelf && r.IsAttr() {
		dst = ev.attrSelf(dst, r, t)
	}
	if from >= 0 && r.doc.IDAt(from) > floor {
		floor = r.doc.IDAt(from)
	}
	return dst, floor
}

// ancestors appends record n and its ancestors with an ID above floor
// that pass t, root first.
func (ev *Evaluator) ancestors(dst NodeSet, n int32, t *test, floor tree.NodeID) NodeSet {
	if n < 0 || t.doc.IDAt(n) <= floor {
		return dst
	}
	return ev.self(ev.ancestors(dst, t.doc.ParentAt(n), t, floor), n, t)
}

// preceding appends what precedes record n — the earlier siblings of n
// and of each ancestor, with what is below them — outermost first: the
// records of n's tree before n, less its ancestors.
func (ev *Evaluator) preceding(dst NodeSet, n int32, t *test) NodeSet {
	d := t.doc
	for i := treeRoot(d, n) + 1; i < n; {
		if end := d.EndAt(i); end < n {
			dst = ev.below(dst, i, end, t)
			i = end + 1
		} else {
			i++ // an ancestor of n: step into it
		}
	}
	return dst
}
