package xpath

import (
	"fmt"
	"sort"
	"strconv"

	"xmlproj/internal/tree"
)

// The differential oracle: the step loop this package ran before it
// evaluated on document order. Every axis is materialised through a
// per-node closure into a candidate set, filtered into a second, appended
// to a third, and every step's output is sorted with sort.Slice whether
// or not the step could have disordered it. It is slow and obviously
// right, and it knows nothing of ID intervals or fused steps, which is
// what makes agreeing with it mean something.
//
// Only paths are evaluated here. Operators and the function library are
// the evaluator's own, reached with their operands already evaluated by
// the oracle and bound to variables no query can name, so that a path
// nested anywhere — a predicate, an argument — is still the oracle's.
type oracle struct {
	*Evaluator
	temps int
}

// OracleEval evaluates e over doc with the old step loop, the root
// element as context node.
func OracleEval(doc *tree.Document, vars map[string]Value, e Expr) (Value, error) {
	o := &oracle{Evaluator: NewEvaluator(doc)}
	for k, v := range vars {
		o.Vars[k] = v
	}
	return o.eval(e, context{node: ElemRef(doc.Root), pos: 1, size: 1})
}

func (o *oracle) eval(e Expr, ctx context) (Value, error) {
	switch x := e.(type) {
	case PathExpr:
		return o.evalPathExpr(x, ctx)
	case Neg:
		v, err := o.eval(x.E, ctx)
		if err != nil {
			return nil, err
		}
		return -ToNumber(v), nil
	case Binary:
		l, err := o.eval(x.L, ctx)
		if err != nil {
			return nil, err
		}
		if x.Op == OpOr && ToBoolean(l) {
			return true, nil
		}
		if x.Op == OpAnd && !ToBoolean(l) {
			return false, nil
		}
		r, err := o.eval(x.R, ctx)
		if err != nil {
			return nil, err
		}
		defer o.unbind(o.temps)
		return o.Evaluator.evalBinary(Binary{Op: x.Op, L: o.bind(l), R: o.bind(r)}, ctx)
	case Call:
		bound := Call{Name: x.Name, Args: make([]Expr, len(x.Args))}
		defer o.unbind(o.temps)
		for i, a := range x.Args {
			v, err := o.eval(a, ctx)
			if err != nil {
				// Whether this or an arity error comes first is the
				// library's to say.
				return o.Evaluator.evalCall(x, ctx)
			}
			bound.Args[i] = o.bind(v)
		}
		return o.Evaluator.evalCall(bound, ctx)
	}
	return o.Evaluator.eval(e, ctx) // literals, numbers, variables
}

// bind holds v in a variable whose name no query can spell.
func (o *oracle) bind(v Value) Var {
	o.temps++
	name := "\x00" + strconv.Itoa(o.temps)
	o.Vars[name] = v
	return Var{Name: name}
}

// unbind drops the variables bound since there were keep of them.
func (o *oracle) unbind(keep int) {
	for ; o.temps > keep; o.temps-- {
		delete(o.Vars, "\x00"+strconv.Itoa(o.temps))
	}
}

// sortDocOracle is SortDoc as it was: always a sort, through reflection.
func (s NodeSet) sortDocOracle() NodeSet {
	sort.Slice(s, func(i, j int) bool { return compareRefs(s[i], s[j]) < 0 })
	out := s[:0]
	for i, r := range s {
		if i > 0 && r == s[i-1] {
			continue
		}
		out = append(out, r)
	}
	return out
}

func (o *oracle) evalPathExpr(pe PathExpr, ctx context) (Value, error) {
	var start NodeSet
	if pe.Filter != nil {
		v, err := o.eval(pe.Filter, ctx)
		if err != nil {
			return nil, err
		}
		if len(pe.FilterPreds) == 0 && len(pe.Path.Steps) == 0 {
			return v, nil
		}
		ns, ok := v.(NodeSet)
		if !ok {
			return nil, fmt.Errorf("xpath: filter expression %s is not a node-set", pe.Filter)
		}
		for _, pred := range pe.FilterPreds {
			ns, err = o.filterPredicate(ns, pred, false)
			if err != nil {
				return nil, err
			}
		}
		start = ns
	} else if pe.Path.Absolute {
		start = NodeSet{ElemRef(o.Doc.Root)}
		// An absolute path starts at the (virtual) document root, whose
		// only element child is the root element: /site selects the root
		// element itself when it has the right tag.
		if len(pe.Path.Steps) > 0 {
			return o.evalAbsolute(pe.Path, ctx)
		}
		return start, nil
	} else {
		start = NodeSet{ctx.node}
	}
	return o.evalSteps(pe.Path.Steps, start)
}

// evalAbsolute handles /step1/… where step1 applies to the virtual
// document root.
func (o *oracle) evalAbsolute(p Path, ctx context) (Value, error) {
	first := p.Steps[0]
	var start NodeSet
	root := ElemRef(o.Doc.Root)
	switch first.Axis {
	case Child:
		// The root element is the single child of the document node.
		if oracleMatchTest(first.Test, root, Child) {
			start = NodeSet{root}
		}
	case Descendant, DescendantOrSelf:
		// descendant(-or-self) from the document node: the root element
		// and everything below it.
		cands := NodeSet{root}
		cands = append(cands, o.axisNodes(root, Descendant)...)
		for _, c := range cands {
			if oracleMatchTest(first.Test, c, first.Axis) {
				start = append(start, c)
			}
		}
	case Self:
		// self::node() on the document node — approximate with the root
		// element (the data model has no separate document node).
		if oracleMatchTest(first.Test, root, Self) {
			start = NodeSet{root}
		}
	default:
		return NodeSet{}, nil
	}
	var err error
	start, err = o.applyPredicates(first, start)
	if err != nil {
		return nil, err
	}
	return o.evalSteps(p.Steps[1:], start)
}

func (o *oracle) evalSteps(steps []Step, start NodeSet) (Value, error) {
	cur := start
	for i := range steps {
		st := &steps[i]
		var out NodeSet
		for _, cn := range cur {
			cands := o.axisNodes(cn, st.Axis)
			matched := cands[:0]
			for _, c := range cands {
				if oracleMatchTest(st.Test, c, st.Axis) {
					matched = append(matched, c)
				}
			}
			filtered, err := o.applyPredicatesOrdered(st.Preds, matched, st.Axis.Reverse())
			if err != nil {
				return nil, err
			}
			out = append(out, filtered...)
		}
		cur = out.sortDocOracle()
	}
	return cur, nil
}

func (o *oracle) applyPredicates(st Step, ns NodeSet) (NodeSet, error) {
	return o.applyPredicatesOrdered(st.Preds, ns, st.Axis.Reverse())
}

// applyPredicatesOrdered filters candidates (already in axis order for
// forward axes, or in document order with reverse=true for reverse axes)
// through each predicate in turn, maintaining proximity positions.
func (o *oracle) applyPredicatesOrdered(preds []Expr, ns NodeSet, reverse bool) (NodeSet, error) {
	var err error
	for _, pred := range preds {
		ns, err = o.filterPredicate(ns, pred, reverse)
		if err != nil {
			return nil, err
		}
	}
	return ns, nil
}

func (o *oracle) filterPredicate(ns NodeSet, pred Expr, reverse bool) (NodeSet, error) {
	out := NodeSet{}
	size := len(ns)
	for i, r := range ns {
		pos := i + 1
		if reverse {
			pos = size - i
		}
		v, err := o.eval(pred, context{node: r, pos: pos, size: size})
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
			out = append(out, r)
		}
	}
	return out, nil
}

// axisNodes enumerates the nodes on an axis from a context node, in axis
// order (reverse axes yield reverse document order — filterPredicate
// compensates via its reverse flag, which expects document order, so
// reverse axes are returned in document order here and positions are
// computed backwards).
func (o *oracle) axisNodes(r NodeRef, axis Axis) NodeSet {
	var out NodeSet
	add := func(n NodeRef) {
		o.Visited++
		out = append(out, n)
	}
	if r.IsAttr() {
		// From an attribute node only self/parent/ancestor(-or-self) are
		// non-empty.
		switch axis {
		case Self:
			add(r)
		case AncestorOrSelf:
			add(r)
			for n := r.N; n != nil; n = n.Parent {
				add(ElemRef(n))
			}
			out = out.sortDocOracle()
		case Parent:
			add(ElemRef(r.N))
		case Ancestor:
			for n := r.N; n != nil; n = n.Parent {
				add(ElemRef(n))
			}
			out = out.sortDocOracle()
		}
		return out
	}
	n := r.N
	switch axis {
	case Self:
		add(r)
	case Child:
		for _, c := range n.Children {
			add(ElemRef(c))
		}
	case Descendant:
		var walk func(*tree.Node)
		walk = func(m *tree.Node) {
			for _, c := range m.Children {
				add(ElemRef(c))
				walk(c)
			}
		}
		walk(n)
	case DescendantOrSelf:
		add(r)
		var walk func(*tree.Node)
		walk = func(m *tree.Node) {
			for _, c := range m.Children {
				add(ElemRef(c))
				walk(c)
			}
		}
		walk(n)
	case Parent:
		if n.Parent != nil {
			add(ElemRef(n.Parent))
		}
	case Ancestor:
		for p := n.Parent; p != nil; p = p.Parent {
			add(ElemRef(p))
		}
		out = out.sortDocOracle()
	case AncestorOrSelf:
		add(r)
		for p := n.Parent; p != nil; p = p.Parent {
			add(ElemRef(p))
		}
		out = out.sortDocOracle()
	case FollowingSibling:
		if n.Parent != nil {
			sibs := n.Parent.Children
			for i := n.Index + 1; i < len(sibs); i++ {
				add(ElemRef(sibs[i]))
			}
		}
	case PrecedingSibling:
		if n.Parent != nil {
			sibs := n.Parent.Children
			for i := 0; i < n.Index; i++ {
				add(ElemRef(sibs[i]))
			}
		}
	case Following:
		for cur := n; cur != nil; cur = cur.Parent {
			if cur.Parent == nil {
				break
			}
			sibs := cur.Parent.Children
			for i := cur.Index + 1; i < len(sibs); i++ {
				add(ElemRef(sibs[i]))
				var walk func(*tree.Node)
				walk = func(m *tree.Node) {
					for _, c := range m.Children {
						add(ElemRef(c))
						walk(c)
					}
				}
				walk(sibs[i])
			}
		}
		out = out.sortDocOracle()
	case Preceding:
		// All nodes strictly before n in document order, excluding
		// ancestors.
		for cur := n; cur != nil; cur = cur.Parent {
			if cur.Parent == nil {
				break
			}
			sibs := cur.Parent.Children
			for i := 0; i < cur.Index; i++ {
				add(ElemRef(sibs[i]))
				var walk func(*tree.Node)
				walk = func(m *tree.Node) {
					for _, c := range m.Children {
						add(ElemRef(c))
						walk(c)
					}
				}
				walk(sibs[i])
			}
		}
		out = out.sortDocOracle()
	case Attribute:
		for i := range n.Attrs {
			add(NodeRef{N: n, AttrIdx: i})
		}
	}
	return out
}

// matchTest applies a node test, honouring the principal node type of the
// axis (attribute for the attribute axis, element otherwise).
func oracleMatchTest(t NodeTest, r NodeRef, axis Axis) bool {
	if r.IsAttr() {
		switch t.Kind {
		case TestNode:
			return true
		case TestStar:
			return axis == Attribute
		case TestName:
			return axis == Attribute && r.N.Attrs[r.AttrIdx].Name == t.Name
		}
		return false
	}
	switch t.Kind {
	case TestNode:
		return true
	case TestStar:
		return r.N.Kind == tree.Element && axis != Attribute
	case TestName:
		return r.N.Kind == tree.Element && axis != Attribute && r.N.Tag == t.Name
	case TestText:
		return r.N.Kind == tree.Text
	default: // comment(), processing-instruction(): not in the data model
		return false
	}
}
