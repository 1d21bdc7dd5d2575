// Package tree implements the XQuery data model of the paper (§2.1): an
// ordered forest of labelled ordered trees with unique node identifiers.
//
// Nodes are either element nodes (a tag labelling an ordered forest of
// children) or text nodes (string leaves). Attributes — omitted from the
// paper's formal model but supported by its implementation (§2.1, §6) —
// are carried on element nodes.
//
// A Document is a table: one fixed-size record per node, in document
// order, holding no Go pointer, so the collector does not trace it. A
// subtree is the range of records from its root to its last descendant.
// Character data is one string in document order, so an element's
// string-value is one substring of it. A Builder makes every Document; a
// Node is a handle on one record.
//
// Defended by: §2.1; `answer_direct` and `tree.parse_mb_s`.
package tree

// NodeID is the unique identifier i of a node within a well-formed forest
// (Def. 2.2). IDs follow document order, so comparing the IDs of two
// nodes of one document, or of a document and a store built past it
// (NewStore), compares document order.
type NodeID int

// Kind discriminates the node kinds of the data model.
type Kind uint8

const (
	// Element is a labelled tree node l_i[f].
	Element Kind = iota
	// Text is a string leaf s_i.
	Text
)

// Attr is a single attribute of an element node.
type Attr struct {
	Name  string
	Value string
}

// noName is a name number no record carries: Document.Name's answer for a
// name the document does not use. A text node's name number is -1.
const noName int32 = -2

// record is one node of a Document's table: 32 bytes, no pointer.
type record struct {
	kind Kind
	// name is the element's name number, an index into Document.names;
	// -1 for a text node.
	name int32
	// parent is the parent's index, -1 for a root; end is the index of
	// the last descendant, the node's own for a leaf.
	parent, end int32
	// off and n locate the node's text in Document.text: a text node's
	// data, an element's string-value (all the text below it).
	off, n uint32
	// attr and nattr locate the element's attributes in Document.attrs.
	attr, nattr uint32
}

// attrRecord is one attribute of a Document's attribute table: 12 bytes,
// no pointer.
type attrRecord struct {
	name   int32  // name number
	off, n uint32 // the value, in Document.vals
}

// Document is a well-formed tree (Def. 2.2) rooted at a single element,
// or, built by a store, a forest of them. What has been built does not
// change; a store only grows at its end.
type Document struct {
	nodes []record
	attrs []attrRecord
	// text holds every text node's data in document order; vals holds
	// the attribute values.
	text, vals string
	names      []string
	byName     map[string]int32
	// The i-th record's ID is base + i, unless ids is set: a pruned
	// document keeps its original's IDs, with gaps.
	base NodeID
	ids  []NodeID
}

// NumNodes reports the number of nodes in the document.
func (d *Document) NumNodes() int { return len(d.nodes) }

// Root returns the document's root element, the first record; the zero
// Node for an empty document.
func (d *Document) Root() Node {
	if len(d.nodes) == 0 {
		return Node{}
	}
	return Node{d, 0}
}

// At returns the node in the i-th record.
func (d *Document) At(i int32) Node { return Node{d, i} }

// Name returns the number the document gives to a name, or one no record
// carries if the document does not use it. A name test looks its
// name up once per document and compares numbers (NameAt) after that.
func (d *Document) Name(tag string) int32 {
	if n, ok := d.byName[tag]; ok {
		return n
	}
	return noName
}

// NameAt returns the name number of the i-th record: -1 for a text node.
func (d *Document) NameAt(i int32) int32 { return d.nodes[i].name }

// EndAt returns the index of the i-th record's last descendant.
func (d *Document) EndAt(i int32) int32 { return d.nodes[i].end }

// ParentAt returns the index of the i-th record's parent, -1 for a root.
func (d *Document) ParentAt(i int32) int32 { return d.nodes[i].parent }

// IDAt returns the ID of the i-th record.
func (d *Document) IDAt(i int32) NodeID {
	if d.ids != nil {
		return d.ids[i]
	}
	return d.base + NodeID(i)
}

// Node is a node of a Document: the document and the index of the node's
// record. The zero Node is no node.
type Node struct {
	d *Document
	i int32
}

// Valid reports whether n is a node, not the zero Node.
func (n Node) Valid() bool { return n.d != nil }

// Doc returns the document the node belongs to.
func (n Node) Doc() *Document { return n.d }

// Index returns the index of the node's record in its document.
func (n Node) Index() int32 { return n.i }

func (n Node) rec() *record { return &n.d.nodes[n.i] }

// ID returns the node's identifier.
func (n Node) ID() NodeID { return n.d.IDAt(n.i) }

// Kind returns the node's kind.
func (n Node) Kind() Kind { return n.rec().kind }

// Tag returns an element's tag, "" for a text node.
func (n Node) Tag() string {
	if r := n.rec(); r.kind == Element {
		return n.d.names[r.name]
	}
	return ""
}

// Data returns a text node's string, "" for an element.
func (n Node) Data() string {
	if r := n.rec(); r.kind == Text {
		return n.d.text[r.off : r.off+r.n]
	}
	return ""
}

// StringValue returns the XPath string-value: the concatenation of all
// text below an element in document order, or a text node's string. Text
// is stored in document order, so either is one substring of the
// document's text and nothing is allocated.
func (n Node) StringValue() string {
	r := n.rec()
	return n.d.text[r.off : r.off+r.n]
}

// LastDescendant returns the last node of n's subtree in document order
// (n itself for a leaf): the subtree is the records from n's to its.
func (n Node) LastDescendant() Node { return Node{n.d, n.rec().end} }

// FirstChild returns the node's first child, or the zero Node.
func (n Node) FirstChild() Node {
	if n.rec().end > n.i {
		return Node{n.d, n.i + 1}
	}
	return Node{}
}

// NextSibling returns the node after n's subtree when it has n's parent,
// or the zero Node. The roots of a store's forest are siblings.
func (n Node) NextSibling() Node {
	r := n.rec()
	next := r.end + 1
	if r.parent >= 0 && next > n.d.nodes[r.parent].end || int(next) >= len(n.d.nodes) {
		return Node{}
	}
	return Node{n.d, next}
}

// NumAttrs returns the number of the element's attributes.
func (n Node) NumAttrs() int { return int(n.rec().nattr) }

// AttrAt returns the element's i-th attribute.
func (n Node) AttrAt(i int) Attr {
	a := n.d.attrs[int(n.rec().attr)+i]
	return Attr{Name: n.d.names[a.name], Value: n.d.vals[a.off : a.off+a.n]}
}

// Attr returns the value of the named attribute and whether it is present.
func (n Node) Attr(name string) (string, bool) {
	r := n.rec()
	for _, a := range n.d.attrs[r.attr : r.attr+r.nattr] {
		if n.d.names[a.name] == name {
			return n.d.vals[a.off : a.off+a.n], true
		}
	}
	return "", false
}
