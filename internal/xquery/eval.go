package xquery

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"xmlproj/internal/tree"
	"xmlproj/internal/xpath"
)

// Item is one member of an XQuery sequence: a node (xpath.NodeRef) or an
// atomic value (string, float64, bool).
type Item interface{}

// Seq is an XQuery sequence.
type Seq []Item

// Evaluator executes FLWR-core queries over one document. Like the XPath
// engine it is a DOM-style main-memory processor; it is the system's
// stand-in for Galax in the paper's experiments.
type Evaluator struct {
	doc *tree.Document
	xe  *xpath.Evaluator
	// shadowed holds, per variable name, the XPath values of the bindings
	// an inner binding of that name hides. The innermost binding is in
	// xe.Vars, lowered from its sequence once, when it was bound.
	shadowed map[string][]xpath.Value
	// lowered counts the sequences lowered to XPath values.
	lowered int
	// next numbers the nodes of constructed elements, from above the
	// document's own IDs: document order holds inside a constructed tree
	// and no ID interval of one tree reaches into another, which is what
	// the XPath engine's steps rely on.
	next tree.NodeID
}

// NewEvaluator returns an evaluator over doc.
func NewEvaluator(doc *tree.Document) *Evaluator {
	ev := &Evaluator{doc: doc, xe: xpath.NewEvaluator(doc), shadowed: map[string][]xpath.Value{},
		next: tree.NodeID(doc.NumNodes())}
	// A tree pruner's output keeps the original's IDs but not its count.
	if doc.Root != nil {
		ev.next = max(ev.next, doc.Root.LastDescendant().ID+1)
	}
	return ev
}

// Visited exposes the underlying engine's node-visit counter.
func (ev *Evaluator) Visited() int64 { return ev.xe.Visited }

// Eval evaluates a query with the document root as context.
func (ev *Evaluator) Eval(q Query) (Seq, error) {
	return ev.eval(q)
}

// push binds name to v for the XPath expressions evaluated until the
// matching pop.
func (ev *Evaluator) push(name string, v Seq) {
	if outer, ok := ev.xe.Vars[name]; ok {
		ev.shadowed[name] = append(ev.shadowed[name], outer)
	}
	ev.lowered++
	ev.xe.Vars[name] = seqToXPathValue(v)
}

// pop ends the innermost binding of name and restores the one it hid.
func (ev *Evaluator) pop(name string) {
	outer := ev.shadowed[name]
	if len(outer) == 0 {
		delete(ev.xe.Vars, name)
		return
	}
	ev.xe.Vars[name] = outer[len(outer)-1]
	ev.shadowed[name] = outer[:len(outer)-1]
}

// seqToXPathValue lowers a sequence to an XPath value: node sequences
// become node-sets, atomic singletons pass through, the empty sequence is
// the empty node-set.
func seqToXPathValue(s Seq) xpath.Value {
	if len(s) == 1 {
		switch v := s[0].(type) {
		case string, float64, bool:
			return v
		}
	}
	ns := make(xpath.NodeSet, 0, len(s))
	for _, it := range s {
		if r, ok := it.(xpath.NodeRef); ok {
			ns = append(ns, r)
		}
	}
	return ns
}

func valueToSeq(v xpath.Value) Seq {
	switch t := v.(type) {
	case xpath.NodeSet:
		out := make(Seq, len(t))
		for i, r := range t {
			out[i] = r
		}
		return out
	default:
		return Seq{t}
	}
}

func (ev *Evaluator) eval(q Query) (Seq, error) {
	switch t := q.(type) {
	case Empty:
		return nil, nil
	case Text:
		return Seq{t.S}, nil
	case Sequence:
		var out Seq
		for _, it := range t.Items {
			s, err := ev.eval(it)
			if err != nil {
				return nil, err
			}
			out = append(out, s...)
		}
		return out, nil
	case Expr:
		v, err := ev.xe.Eval(t.E)
		if err != nil {
			return nil, err
		}
		return valueToSeq(v), nil
	case For:
		in, err := ev.eval(t.In)
		if err != nil {
			return nil, err
		}
		var out Seq
		if ob, ok := t.Return.(OrderBy); ok {
			return ev.evalOrderedFor(in, t.Var, ob)
		}
		for _, item := range in {
			ev.push(t.Var, Seq{item})
			s, err := ev.eval(t.Return)
			ev.pop(t.Var)
			if err != nil {
				return nil, err
			}
			out = append(out, s...)
		}
		return out, nil
	case Let:
		val, err := ev.eval(t.Val)
		if err != nil {
			return nil, err
		}
		ev.push(t.Var, val)
		defer ev.pop(t.Var)
		return ev.eval(t.Return)
	case If:
		cond, err := ev.eval(t.Cond)
		if err != nil {
			return nil, err
		}
		if effectiveBool(cond) {
			return ev.eval(t.Then)
		}
		return ev.eval(t.Else)
	case OrderBy:
		// An OrderBy not directly under a For (degenerate): just evaluate
		// the body.
		return ev.eval(t.Body)
	case Element:
		return ev.evalElement(t)
	case FuncQ:
		return ev.evalFuncQ(t)
	case Quantified:
		in, err := ev.eval(t.In)
		if err != nil {
			return nil, err
		}
		for _, item := range in {
			ev.push(t.Var, Seq{item})
			s, err := ev.eval(t.Sat)
			ev.pop(t.Var)
			if err != nil {
				return nil, err
			}
			if effectiveBool(s) != t.Every {
				return Seq{!t.Every}, nil
			}
		}
		return Seq{t.Every}, nil
	}
	return nil, fmt.Errorf("xquery: cannot evaluate %T", q)
}

// evalOrderedFor evaluates for $v in `in` order by keys return body.
func (ev *Evaluator) evalOrderedFor(in Seq, varName string, ob OrderBy) (Seq, error) {
	type entry struct {
		keys []string
		item Item
	}
	entries := make([]entry, 0, len(in))
	for _, item := range in {
		ev.push(varName, Seq{item})
		keys := make([]string, len(ob.Keys))
		for i, k := range ob.Keys {
			v, err := ev.xe.Eval(k)
			if err != nil {
				ev.pop(varName)
				return nil, err
			}
			keys[i] = xpath.ToString(v)
		}
		ev.pop(varName)
		entries = append(entries, entry{keys: keys, item: item})
	}
	slices.SortStableFunc(entries, func(a, b entry) int {
		c := slices.Compare(a.keys, b.keys)
		if ob.Descending {
			c = -c
		}
		return c
	})
	var out Seq
	for _, e := range entries {
		ev.push(varName, Seq{e.item})
		s, err := ev.eval(ob.Body)
		ev.pop(varName)
		if err != nil {
			return nil, err
		}
		out = append(out, s...)
	}
	return out, nil
}

// effectiveBool is the XQuery effective boolean value of a sequence.
func effectiveBool(s Seq) bool {
	if len(s) == 0 {
		return false
	}
	if len(s) == 1 {
		switch v := s[0].(type) {
		case bool:
			return v
		case string:
			return v != ""
		case float64:
			return v != 0 && !math.IsNaN(v)
		}
	}
	return true // non-empty node sequence
}

// evalElement builds a constructed element. Node content is deep-copied
// (XQuery constructor semantics); adjacent atomic values are joined with
// single spaces.
func (ev *Evaluator) evalElement(e Element) (Seq, error) {
	n := tree.NewElement(e.Tag)
	for _, a := range e.Attrs {
		if a.Expr == nil {
			n.SetAttr(a.Name, a.Literal)
			continue
		}
		s, err := ev.eval(a.Expr)
		if err != nil {
			return nil, err
		}
		n.SetAttr(a.Name, seqString(s))
	}
	if e.Body != nil {
		var textBuf strings.Builder
		flushText := func() {
			if textBuf.Len() > 0 {
				n.Append(tree.NewText(textBuf.String()))
				textBuf.Reset()
			}
		}
		// Literal text pieces splice in verbatim; within one enclosed
		// expression, adjacent atomic items are joined by single spaces
		// (XQuery constructor semantics).
		for _, piece := range bodyPieces(e.Body) {
			if txt, ok := piece.(Text); ok {
				textBuf.WriteString(txt.S)
				continue
			}
			items, err := ev.eval(piece)
			if err != nil {
				return nil, err
			}
			pendingAtomic := false
			for _, item := range items {
				switch v := item.(type) {
				case xpath.NodeRef:
					if v.IsAttr() {
						n.SetAttr(v.N.Attrs[v.AttrIdx].Name, v.N.Attrs[v.AttrIdx].Value)
						continue
					}
					flushText()
					n.Append(copyNode(v.N))
					pendingAtomic = false
				default:
					if pendingAtomic {
						textBuf.WriteString(" ")
					}
					textBuf.WriteString(atomicString(item))
					pendingAtomic = true
				}
			}
		}
		flushText()
	}
	ev.number(n)
	return Seq{xpath.ElemRef(n)}, nil
}

// number gives the nodes of a finished constructed tree their IDs, in
// document order. What was copied into it from an earlier constructed
// element is numbered again here, as part of this tree.
func (ev *Evaluator) number(n *tree.Node) {
	n.ID = ev.next
	ev.next++
	for _, c := range n.Children {
		ev.number(c)
	}
}

// bodyPieces splits a constructor body into its top-level content pieces.
func bodyPieces(q Query) []Query {
	if s, ok := q.(Sequence); ok {
		return s.Items
	}
	return []Query{q}
}

func copyNode(n *tree.Node) *tree.Node {
	m := &tree.Node{Kind: n.Kind, Tag: n.Tag, Data: n.Data}
	m.Attrs = append(m.Attrs, n.Attrs...)
	for _, c := range n.Children {
		m.Append(copyNode(c))
	}
	return m
}

func atomicString(it Item) string {
	switch v := it.(type) {
	case xpath.NodeRef:
		return v.StringValue()
	case string:
		return v
	case float64:
		return xpath.FormatNumber(v)
	case bool:
		if v {
			return "true"
		}
		return "false"
	}
	return ""
}

func seqString(s Seq) string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = atomicString(it)
	}
	return strings.Join(parts, " ")
}

func (ev *Evaluator) evalFuncQ(f FuncQ) (Seq, error) {
	args := make([]Seq, len(f.Args))
	for i, a := range f.Args {
		s, err := ev.eval(a)
		if err != nil {
			return nil, err
		}
		args[i] = s
	}
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("xquery: %s() expects %d argument(s), got %d", f.Name, n, len(args))
		}
		return nil
	}
	switch f.Name {
	case "count":
		if err := arity(1); err != nil {
			return nil, err
		}
		return Seq{float64(len(args[0]))}, nil
	case "empty":
		if err := arity(1); err != nil {
			return nil, err
		}
		return Seq{len(args[0]) == 0}, nil
	case "exists":
		if err := arity(1); err != nil {
			return nil, err
		}
		return Seq{len(args[0]) > 0}, nil
	case "sum", "avg", "min", "max":
		if err := arity(1); err != nil {
			return nil, err
		}
		return aggregateSeq(f.Name, args[0])
	case "distinct-values":
		if err := arity(1); err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		var out Seq
		for _, it := range args[0] {
			s := atomicString(it)
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
		return out, nil
	case "string-join":
		if err := arity(2); err != nil {
			return nil, err
		}
		parts := make([]string, len(args[0]))
		for i, it := range args[0] {
			parts[i] = atomicString(it)
		}
		return Seq{strings.Join(parts, seqString(args[1]))}, nil
	case "zero-or-one", "exactly-one", "data":
		if err := arity(1); err != nil {
			return nil, err
		}
		return args[0], nil
	}
	return nil, fmt.Errorf("xquery: unknown function %s()", f.Name)
}

func aggregateSeq(name string, s Seq) (Seq, error) {
	if len(s) == 0 {
		if name == "sum" {
			return Seq{0.0}, nil
		}
		return nil, nil
	}
	acc := 0.0
	switch name {
	case "min":
		acc = math.Inf(1)
	case "max":
		acc = math.Inf(-1)
	}
	for _, it := range s {
		f := xpath.ToNumber(atomicString(it))
		switch name {
		case "sum", "avg":
			acc += f
		case "min":
			acc = math.Min(acc, f)
		case "max":
			acc = math.Max(acc, f)
		}
	}
	if name == "avg" {
		acc /= float64(len(s))
	}
	return Seq{acc}, nil
}

// Serialize renders a result sequence as XML text (constructed elements
// serialised, atomics printed, top-level items separated by newlines).
func Serialize(s Seq) string { return serialize(s, itemSize, writeItem) }

// SerializeNodes is Serialize for a node-set as the XPath engine returns
// it, without boxing each node into an Item first.
func SerializeNodes(ns xpath.NodeSet) string { return serialize(ns, refSize, writeRef) }

// serialize sizes the text with one walk of the result and writes it with
// a second, into a buffer allocated once.
func serialize[T any](items []T, size func(T) int, write func(*strings.Builder, T)) string {
	n := max(len(items)-1, 0) // the newlines
	for _, it := range items {
		n += size(it)
	}
	var sb strings.Builder
	sb.Grow(n)
	for i, it := range items {
		if i > 0 {
			sb.WriteByte('\n')
		}
		write(&sb, it)
	}
	return sb.String()
}

func itemSize(it Item) int {
	if r, ok := it.(xpath.NodeRef); ok {
		return refSize(r)
	}
	return len(atomicString(it))
}

func writeItem(sb *strings.Builder, it Item) {
	if r, ok := it.(xpath.NodeRef); ok {
		writeRef(sb, r)
	} else {
		sb.WriteString(atomicString(it))
	}
}

// A node item is written as its XML, an attribute node as its value.
func refSize(r xpath.NodeRef) int {
	if r.IsAttr() {
		return len(r.StringValue())
	}
	return r.N.XMLSize()
}

func writeRef(sb *strings.Builder, r xpath.NodeRef) {
	if r.IsAttr() {
		sb.WriteString(r.StringValue())
	} else {
		r.N.AppendXML(sb)
	}
}
