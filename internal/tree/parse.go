package tree

import (
	"fmt"
	"io"
	"strings"

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
	l := loader{names: make(map[string]string)}
	if err := scan.Walk(b, &l); err != nil {
		return nil, fmt.Errorf("tree: parse: %w", err)
	}
	return &Document{Root: l.root, next: l.next}, nil
}

// loader builds a Document from scan.Walk's events. Nodes, child lists,
// attribute lists, text and attribute values are all cut from slabs, so a
// load costs a few allocations per thousand nodes; the price is that a
// node kept alive keeps its slabs alive. Every list is cut at exact size
// with no spare capacity, so appending to one (Node.Append, SetAttr)
// reallocates it instead of running into its neighbour.
type loader struct {
	root *Node
	next NodeID // IDs are handed out as nodes are made: document order

	nodes []Node          // slab the next node is cut from
	kids  []*Node         // slab the next Children list is cut from
	attrs []Attr          // slab the next Attrs list is cut from
	text  strings.Builder // slab the next text or attribute value is cut from

	// names holds the one string kept per distinct name; recent is a
	// direct-mapped table in front of it.
	names  map[string]string
	recent [256]string

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

// Slab sizes, in entries (bytes, for text): a slab starts small, so that
// a ten-node document costs what it should, and doubles up to the cap.
const (
	minSlab, maxSlab         = 32, 2048
	minTextSlab, maxTextSlab = 1 << 10, 64 << 10
)

// room returns slab if it has space for need more entries, and a fresh,
// larger one if not; what was cut from the old slab stays where it is.
func room[T any](slab []T, need int) []T {
	if len(slab)+need <= cap(slab) {
		return slab
	}
	return make([]T, 0, max(min(max(2*cap(slab), minSlab), maxSlab), need))
}

// str returns b as a string cut from the text slab. A slab is grown once,
// when it is made, and never written past its capacity, so the strings
// cut from it stay valid as later ones are appended behind them. A string
// of a quarter slab or more is allocated alone rather than end a slab early.
func (l *loader) str(b []byte) string {
	if len(b) >= maxTextSlab/4 {
		return string(b)
	}
	if l.text.Len()+len(b) > l.text.Cap() {
		n := min(max(2*l.text.Cap(), minTextSlab), maxTextSlab)
		l.text.Reset()
		l.text.Grow(n)
	}
	at := l.text.Len()
	l.text.Write(b)
	return l.text.String()[at:]
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
	slot := &l.recent[(uint32(len(b))*0x9E3779B1^uint32(b[0])*0x85EBCA6B^uint32(b[len(b)-1])*0xC2B2AE35^uint32(b[len(b)/2])*0x27D4EB2F)>>24]
	if *slot != string(b) {
		s, ok := l.names[string(b)]
		if !ok {
			s = string(b)
			l.names[s] = s
		}
		*slot = s
	}
	return *slot
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
			l.attrs = append(l.attrs, Attr{Name: l.name(a.Name), Value: l.str(a.Value)})
		}
		n.Attrs = l.attrs[at:len(l.attrs):len(l.attrs)]
	}
	l.open = append(l.open, openElem{n, len(l.pend)})
}

func (l *loader) Text(data []byte) {
	n := l.node()
	n.Kind, n.Data = Text, l.str(data)
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
