// Package tree implements the XQuery data model of the paper (§2.1): an
// ordered forest of labelled ordered trees with unique node identifiers.
//
// Nodes are either element nodes (a tag labelling an ordered forest of
// children), text nodes (string leaves), or the document root. Attributes —
// omitted from the paper's formal model but supported by its implementation
// (§2.1, §6) — are carried on element nodes.
package tree

import (
	"fmt"
	"strings"
)

// NodeID is the unique identifier i of a node within a well-formed forest
// (Def. 2.2). IDs are assigned in document order by the parser and by
// Renumber, so comparing IDs of nodes of the same document compares
// document order.
type NodeID int

// Kind discriminates the node kinds of the data model.
type Kind uint8

const (
	// Element is a labelled tree node l_i[f].
	Element Kind = iota
	// Text is a string leaf s_i.
	Text
)

func (k Kind) String() string {
	switch k {
	case Element:
		return "element"
	case Text:
		return "text"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Attr is a single attribute of an element node.
type Attr struct {
	Name  string
	Value string
}

// Node is a tree t of the data model: either s_i (Kind == Text, Data holds
// s) or l_i[f] (Kind == Element, Tag holds l, Children holds f).
type Node struct {
	ID   NodeID
	Kind Kind

	// Tag is the element tag l; empty for text nodes.
	Tag string
	// Data is the text content s; empty for element nodes.
	Data string

	Attrs    []Attr
	Children []*Node

	// Parent is nil for a root node.
	Parent *Node
	// Index is the position of the node among its parent's children.
	Index int
}

// NewElement returns a parentless element node labelled tag.
func NewElement(tag string, children ...*Node) *Node {
	n := &Node{Kind: Element, Tag: tag}
	for _, c := range children {
		n.Append(c)
	}
	return n
}

// NewText returns a parentless text node holding data.
func NewText(data string) *Node {
	return &Node{Kind: Text, Data: data}
}

// Append adds c as the last child of n and fixes its parent/index links.
func (n *Node) Append(c *Node) {
	c.Parent = n
	c.Index = len(n.Children)
	n.Children = append(n.Children, c)
}

// Attr returns the value of the named attribute and whether it is present.
func (n *Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// SetAttr sets (or overwrites) an attribute.
func (n *Node) SetAttr(name, value string) {
	for i, a := range n.Attrs {
		if a.Name == name {
			n.Attrs[i].Value = value
			return
		}
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
}

// Root walks parent links up to the root of the tree containing n.
func (n *Node) Root() *Node {
	r := n
	for r.Parent != nil {
		r = r.Parent
	}
	return r
}

// LastDescendant returns the last node of n's subtree in document order,
// the end of its rightmost path (n itself for a leaf). IDs are handed out
// in document order, so the subtree is exactly the nodes with IDs from
// n's to its, and a document's largest ID is its root's last descendant's.
func (n *Node) LastDescendant() *Node {
	for len(n.Children) > 0 {
		n = n.Children[len(n.Children)-1]
	}
	return n
}

// StringValue returns the concatenation of all text-node descendants of n
// in document order (the XPath string-value of an element), or Data for a
// text node. It is sized by one walk and written by a second; when one
// text node holds all of it, as under an element of simple content, that
// node's string is the value and nothing is allocated.
func (n *Node) StringValue() string {
	if n.Kind == Text {
		return n.Data
	}
	var last string
	size := textSize(n, &last)
	if size == len(last) {
		return last
	}
	var sb strings.Builder
	sb.Grow(size)
	appendText(&sb, n)
	return sb.String()
}

// textSize returns the length of the text below n and leaves the last
// text node's string in *last.
func textSize(n *Node, last *string) int {
	size := 0
	for _, c := range n.Children {
		if c.Kind == Text {
			size += len(c.Data)
			*last = c.Data
		} else if len(c.Children) > 0 {
			size += textSize(c, last)
		}
	}
	return size
}

func appendText(sb *strings.Builder, n *Node) {
	for _, c := range n.Children {
		if c.Kind == Text {
			sb.WriteString(c.Data)
		} else if len(c.Children) > 0 {
			appendText(sb, c)
		}
	}
}

// Document is a well-formed tree (Def. 2.2) rooted at a single element.
type Document struct {
	Root *Node
	// next is the next fresh NodeID.
	next NodeID
}

// NewDocument wraps root in a Document and numbers all nodes in document
// order.
func NewDocument(root *Node) *Document {
	d := &Document{Root: root}
	d.Renumber()
	return d
}

// Renumber reassigns node IDs in document order. It must be called after
// structural mutation if IDs are subsequently used for document-order
// comparison.
func (d *Document) Renumber() {
	d.next = 0
	d.Walk(func(n *Node) bool {
		n.ID = d.next
		d.next++
		return true
	})
}

// NumNodes reports the number of nodes currently numbered in the document.
func (d *Document) NumNodes() int { return int(d.next) }

// Walk visits every node of the document in document order. If f returns
// false the children of the current node are skipped.
func (d *Document) Walk(f func(*Node) bool) {
	if d.Root == nil {
		return
	}
	walk(d.Root, f)
}

func walk(n *Node, f func(*Node) bool) {
	if !f(n) {
		return
	}
	for _, c := range n.Children {
		walk(c, f)
	}
}

// ByID returns the node with the given ID, or nil. It is a linear search
// intended for tests and tooling, not for the query engine.
func (d *Document) ByID(id NodeID) *Node {
	var found *Node
	d.Walk(func(n *Node) bool {
		if n.ID == id {
			found = n
			return false
		}
		return found == nil
	})
	return found
}

// Clone returns a deep copy of the document, preserving node IDs.
func (d *Document) Clone() *Document {
	c := &Document{next: d.next}
	if d.Root != nil {
		c.Root = cloneNode(d.Root, nil)
	}
	return c
}

func cloneNode(n *Node, parent *Node) *Node {
	m := &Node{ID: n.ID, Kind: n.Kind, Tag: n.Tag, Data: n.Data, Parent: parent, Index: n.Index}
	if len(n.Attrs) > 0 {
		m.Attrs = append([]Attr(nil), n.Attrs...)
	}
	if len(n.Children) > 0 {
		m.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			m.Children[i] = cloneNode(c, m)
		}
	}
	return m
}

// Equal reports structural equality of two trees: same kinds, tags, data,
// attributes (ordered) and children. Node IDs are ignored.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Tag != b.Tag || a.Data != b.Data {
		return false
	}
	if len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// IsProjectionOf reports whether tree p is a projection of tree t in the
// sense of Def. 2.1: p is obtained from t by replacing some subforests with
// the empty forest. Matching is by node identity (IDs), so both trees must
// stem from the same numbering.
func IsProjectionOf(p, t *Node) bool {
	if p.ID != t.ID || p.Kind != t.Kind || p.Tag != t.Tag || p.Data != t.Data {
		return false
	}
	// Children of p must be an ID-subsequence of children of t, each
	// recursively a projection.
	j := 0
	for _, pc := range p.Children {
		for j < len(t.Children) && t.Children[j].ID != pc.ID {
			j++
		}
		if j == len(t.Children) {
			return false
		}
		if !IsProjectionOf(pc, t.Children[j]) {
			return false
		}
		j++
	}
	return true
}
