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
type Item = xpath.Value

// Seq is an XQuery sequence, the one the function library reads.
type Seq = xpath.Seq

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
	// store holds the elements the query constructs, numbered from above
	// the document's own IDs as they are built: document order holds
	// inside a constructed tree and no ID interval of one tree reaches
	// into another, which is what the XPath engine's steps rely on. It is
	// made by the first constructor.
	store *tree.Builder
}

// NewEvaluator returns an evaluator over doc.
func NewEvaluator(doc *tree.Document) *Evaluator {
	xe := xpath.NewEvaluator(doc)
	xe.Vars = map[string]xpath.Value{}
	return &Evaluator{doc: doc, xe: xe, shadowed: map[string][]xpath.Value{}}
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
	case Seq:
		return t
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

// evalElement builds a constructed element. Its attributes and content
// are evaluated first — a constructor among them builds its own element,
// in the store, before this one starts — and the element is then built
// in one go: attributes, then the content, node items deep-copied
// (XQuery constructor semantics) and adjacent atomic values joined with
// single spaces into one text node.
func (ev *Evaluator) evalElement(e Element) (Seq, error) {
	attrs := make([]tree.Attr, 0, len(e.Attrs))
	for _, a := range e.Attrs {
		if a.Expr == nil {
			attrs = append(attrs, tree.Attr{Name: a.Name, Value: a.Literal})
			continue
		}
		s, err := ev.eval(a.Expr)
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, tree.Attr{Name: a.Name, Value: seqString(s)})
	}
	// content is the element's children: a text run or a node to copy.
	type child struct {
		text   string
		node   xpath.NodeRef
		isNode bool
	}
	var content []child
	if e.Body != nil {
		var textBuf strings.Builder
		flushText := func() {
			if textBuf.Len() > 0 {
				content = append(content, child{text: textBuf.String()})
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
						attrs = append(attrs, tree.Attr{Name: v.Name(), Value: v.StringValue()})
						continue
					}
					flushText()
					content = append(content, child{node: v, isNode: true})
					pendingAtomic = false
				default:
					if pendingAtomic {
						textBuf.WriteString(" ")
					}
					textBuf.WriteString(xpath.ToString(item))
					pendingAtomic = true
				}
			}
		}
		flushText()
	}
	if ev.store == nil {
		ev.store = tree.NewStore(ev.doc)
	}
	b := ev.store
	at := int32(b.Document().NumNodes())
	b.Start(e.Tag)
	for _, a := range attrs {
		b.Attr(a.Name, a.Value)
	}
	for _, c := range content {
		if c.isNode {
			b.Copy(c.node.N())
		} else {
			b.TextString(c.text)
		}
	}
	b.EndElement()
	return Seq{xpath.ElemRef(b.Document().At(at))}, nil
}

// bodyPieces splits a constructor body into its top-level content pieces.
func bodyPieces(q Query) []Query {
	if s, ok := q.(Sequence); ok {
		return s.Items
	}
	return []Query{q}
}

func seqString(s Seq) string {
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = xpath.ToString(it)
	}
	return strings.Join(parts, " ")
}

// evalFuncQ applies a function of a sequence through the library: its
// first argument passes as the sequence it is, the others are lowered as a
// variable's value is.
func (ev *Evaluator) evalFuncQ(f FuncQ) (Seq, error) {
	v, err := ev.xe.CallSeq(f.Name, len(f.Args), func(i int) (xpath.Value, error) {
		s, err := ev.eval(f.Args[i])
		switch {
		case err != nil:
			return nil, err
		case i == 0:
			return s, nil
		}
		return seqToXPathValue(s), nil
	})
	if err != nil {
		return nil, err
	}
	return valueToSeq(v), nil
}

// Serialize renders a result sequence as XML text (constructed elements
// serialised, atomics printed, top-level items separated by newlines).
func Serialize(s Seq) string { return serialize(s, itemNode, xpath.ToString) }

// SerializeNodes is Serialize for a node-set as the XPath engine returns
// it, without boxing each node into an Item first.
func SerializeNodes(ns xpath.NodeSet) string {
	return serialize(ns, refNode, xpath.NodeRef.StringValue)
}

// serialize sizes the text with one walk of the result and writes it with
// a second, into a buffer allocated once at that size. A node is rendered
// once: a node item inside the last node rendered whole — below it, or it
// again — is a copy of its span in that rendering, which the sizing walk
// records (tree.Node.XMLSpans) when the item after a node lies inside it,
// and the writing walk copies from the builder's own earlier bytes; the
// capacity never moves, so they stay where they were written. Nodes
// outside the last rendered one — of another document, or a sequence out
// of document order — are rendered item by item, to the same bytes; an
// attribute or an atomic value is written as its text.
func serialize[T any](items []T, node func(T) (tree.Node, bool), text func(T) string) string {
	var r renderer
	n := max(len(items)-1, 0) // the newlines
	for i, it := range items {
		if m, ok := node(it); !ok {
			n += len(text(it))
		} else if sp, ok := r.within(m); ok {
			n += int(sp.End - sp.Start)
		} else {
			n += r.measure(m, nextWithin(items, i, node, m))
		}
	}
	var sb strings.Builder
	sb.Grow(n)
	r.last, r.spans = tree.Node{}, nil
	for i, it := range items {
		if i > 0 {
			sb.WriteByte('\n')
		}
		if m, ok := node(it); !ok {
			sb.WriteString(text(it))
		} else if sp, ok := r.within(m); ok {
			sb.WriteString(sb.String()[r.at+int(sp.Start) : r.at+int(sp.End)])
		} else {
			r.render(m, sb.Len(), nextWithin(items, i, node, m))
			m.AppendXML(&sb)
		}
	}
	return sb.String()
}

// renderer is what serialize knows of the last node it rendered whole.
type renderer struct {
	last  tree.Node
	at    int         // where last's rendering starts in the output
	spans []tree.Span // its records' spans in that rendering, if recorded
	// recorded holds the spans of every node measure recorded, in item
	// order, each allocated at its size; taken counts those render has
	// taken back.
	recorded [][]tree.Span
	taken    int
}

// within returns m's span in the last node's rendering, when it was
// recorded and m lies inside the node.
func (r *renderer) within(m tree.Node) (tree.Span, bool) {
	k := int(m.Index() - r.last.Index())
	if r.spans == nil || m.Doc() != r.last.Doc() || k < 0 || k >= len(r.spans) {
		return tree.Span{}, false
	}
	return r.spans[k], true
}

// measure makes m the last node rendered whole and returns its size,
// recording its spans if record.
func (r *renderer) measure(m tree.Node, record bool) int {
	r.last, r.spans = m, nil
	if !record {
		return m.XMLSize()
	}
	spans := make([]tree.Span, records(m))
	size := m.XMLSpans(spans)
	if size <= math.MaxInt32 { // a span holds 32-bit offsets
		r.spans = spans
	}
	r.recorded = append(r.recorded, r.spans)
	return size
}

// render makes m, written from the output's offset at, the last node
// rendered whole, with the spans measure recorded for it if recorded.
func (r *renderer) render(m tree.Node, at int, recorded bool) {
	r.last, r.at, r.spans = m, at, nil
	if recorded {
		r.spans = r.recorded[r.taken]
		r.taken++
	}
}

// nextWithin reports whether the item after the i-th is a node inside m:
// only then is m's rendering worth recording.
func nextWithin[T any](items []T, i int, node func(T) (tree.Node, bool), m tree.Node) bool {
	if i+1 == len(items) {
		return false
	}
	next, ok := node(items[i+1])
	return ok && next.Doc() == m.Doc() && next.Index() >= m.Index() && next.Index() <= m.LastDescendant().Index()
}

// records is the number of records in m's subtree.
func records(m tree.Node) int { return int(m.LastDescendant().Index()-m.Index()) + 1 }

// itemNode and refNode return the tree node an item is, if it is one
// written as XML: not an attribute, which is written as its value.
func itemNode(it Item) (tree.Node, bool) {
	if r, ok := it.(xpath.NodeRef); ok {
		return refNode(r)
	}
	return tree.Node{}, false
}

func refNode(r xpath.NodeRef) (tree.Node, bool) { return r.N(), !r.IsAttr() }
