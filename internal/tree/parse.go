package tree

import (
	"fmt"
	"io"

	"xmlproj/internal/scan"
)

// Parse reads r to the end and parses the bytes: the tree holds the
// whole document anyway, and the tokeniser runs fastest over resident
// input. Comments, processing instructions and the document type
// declaration are skipped (the paper's data model has only element and
// text nodes), namespace prefixes and declarations are dropped, and
// character data is kept as scan.Handler.Text joins it: chunk by chunk,
// a chunk of nothing but whitespace dropped wherever it stands.
func Parse(r io.Reader) (*Document, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("tree: parse: %w", err)
	}
	return ParseBytes(data)
}

// ParseString parses an XML document held in a string.
func ParseString(s string) (*Document, error) {
	return ParseBytes([]byte(s))
}

// ParseBytes parses an XML document held in a byte slice. The tree
// keeps no reference to b.
func ParseBytes(b []byte) (*Document, error) {
	var l loader
	if err := scan.Walk(b, &l); err != nil {
		return nil, fmt.Errorf("tree: parse: %w", err)
	}
	return &Document{Root: l.root, next: l.next}, nil
}

// loader builds a Document from scan.Walk's events. Nodes, child lists
// and attribute lists are cut from slabs, so a load costs a few
// allocations per thousand nodes plus one string per text node and
// attribute value; the price is that a node kept alive keeps its slabs
// alive. Every list is cut at exact size with no spare capacity, so
// appending to one (Node.Append, SetAttr) reallocates it instead of
// running into its neighbour.
type loader struct {
	root *Node
	next NodeID // IDs are handed out as nodes are made: document order

	nodes []Node  // slab the next node is cut from
	kids  []*Node // slab the next Children list is cut from
	attrs []Attr  // slab the next Attrs list is cut from
	names map[string]string

	// open is the stack of open elements; pend holds their children so
	// far, the i-th element's from open[i].first up to where the next
	// one's begin. An element's list is cut when its end tag arrives.
	open []openElem
	pend []*Node
}

type openElem struct {
	n     *Node
	first int
}

// Slab sizes, in entries: a slab starts small, so that a ten-node
// document costs what it should, and doubles up to the cap.
const (
	minSlab = 32
	maxSlab = 2048
)

// room returns slab if it has space for need more entries, and a fresh,
// larger one if not; what was cut from the old slab stays where it is.
func room[T any](slab []T, need int) []T {
	if len(slab)+need <= cap(slab) {
		return slab
	}
	n := 2 * cap(slab)
	if n < minSlab {
		n = minSlab
	}
	if n > maxSlab {
		n = maxSlab
	}
	if n < need {
		n = need
	}
	return make([]T, 0, n)
}

// node cuts a node from the slab, numbers it and hangs it under the
// innermost open element.
func (l *loader) node() *Node {
	l.nodes = room(l.nodes, 1)
	l.nodes = l.nodes[:len(l.nodes)+1]
	n := &l.nodes[len(l.nodes)-1]
	n.ID = l.next
	l.next++
	if len(l.open) > 0 {
		top := l.open[len(l.open)-1]
		n.Parent, n.Index = top.n, len(l.pend)-top.first
		l.pend = append(l.pend, n)
	}
	return n
}

// name returns the one string the loader keeps per distinct name.
func (l *loader) name(b []byte) string {
	if s, ok := l.names[string(b)]; ok {
		return s
	}
	if l.names == nil {
		l.names = make(map[string]string)
	}
	s := string(b)
	l.names[s] = s
	return s
}

func (l *loader) StartElement(name []byte, attrs []scan.Attr) {
	n := l.node()
	n.Kind, n.Tag = Element, l.name(name)
	if l.root == nil {
		l.root = n
	}
	if len(attrs) > 0 {
		l.attrs = room(l.attrs, len(attrs))
		at := len(l.attrs)
		for _, a := range attrs {
			l.attrs = append(l.attrs, Attr{Name: l.name(a.Name), Value: string(a.Value)})
		}
		n.Attrs = l.attrs[at:len(l.attrs):len(l.attrs)]
	}
	l.open = append(l.open, openElem{n, len(l.pend)})
}

func (l *loader) Text(data []byte) {
	n := l.node()
	n.Kind, n.Data = Text, string(data)
}

func (l *loader) EndElement() {
	top := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	if kids := l.pend[top.first:]; len(kids) > 0 {
		l.kids = room(l.kids, len(kids))
		at := len(l.kids)
		l.kids = append(l.kids, kids...)
		top.n.Children = l.kids[at:len(l.kids):len(l.kids)]
		l.pend = l.pend[:top.first]
	}
}
