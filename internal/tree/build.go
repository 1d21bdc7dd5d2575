package tree

import (
	"fmt"
	"slices"
	"strings"

	"xmlproj/internal/scan"
)

// Builder makes every Document: the loader, the XQuery constructors, the
// pruners and the generators call StartElement (or Start) / Attr / Text /
// EndElement in document order. It is a scan.Handler, so a load is
// scan.Walk with a Builder as the handler. A node's ID is its
// position past the builder's base unless SetID says otherwise. Text and
// values are appended through strings.Builder: what has been handed out
// is never written again.
type Builder struct {
	d          *Document
	text, vals strings.Builder
	open       []int32 // the open elements, innermost last
	attrsOK    bool    // the last record made is an element without content yet
	// recent is a direct-mapped table of name numbers (+1) in front of
	// Document.byName, for names read from input bytes.
	recent [256]int32
}

// The loader sizes its tables from the input: the text is never longer
// (only the predefined entities and character references are decoded,
// and "\r\n" becomes "\n"), and XMark runs at 30 bytes a node and 2 %
// of its bytes in attribute values. A short estimate, or none — a prune
// into the table cannot know what it will keep — grows by doubling.
const (
	bytesPerNode = 24
	bytesPerAttr = 192
	valsShare    = 16
)

// NewBuilder returns a builder for a document of about size bytes of
// XML. Its text buffer is allocated once at size, and the node and
// attribute tables and the value buffer are sized from it.
func NewBuilder(size int) *Builder {
	b := &Builder{d: &Document{
		nodes:  make([]record, 0, size/bytesPerNode+8),
		attrs:  make([]attrRecord, 0, size/bytesPerAttr+4),
		byName: make(map[string]int32),
	}}
	b.text.Grow(size)
	b.vals.Grow(size / valsShare)
	return b
}

// NewStore returns a builder for a forest whose IDs begin past every ID
// of doc: the nodes of both compare in one document order. Its Document
// is the same *Document however often it is asked for, grown by what was
// built since; the XQuery evaluator builds what a query constructs there.
func NewStore(doc *Document) *Builder {
	b := NewBuilder(0)
	if n := len(doc.nodes); n > 0 {
		b.d.base = doc.IDAt(int32(n-1)) + 1
	}
	return b
}

// Document returns what has been built.
func (b *Builder) Document() *Document {
	b.sync()
	return b.d
}

// Loaded returns the document as a load returns it: a document with no
// root element is ParseBytes's error. A prune into the table ends here,
// because what it keeps can be nothing — without validation a root
// element other than the DTD's is not refused, and π may discard it —
// where a load of its rendering fails.
func (b *Builder) Loaded() (*Document, error) {
	if len(b.d.nodes) == 0 {
		return nil, fmt.Errorf("tree: parse: %w", scan.ErrNoRoot)
	}
	return b.Document(), nil
}

// sync publishes what the strings hold to the document.
func (b *Builder) sync() {
	b.d.text, b.d.vals = b.text.String(), b.vals.String()
}

// parent returns the innermost open element, -1 if there is none.
func (b *Builder) parent() int32 {
	if k := len(b.open); k > 0 {
		return b.open[k-1]
	}
	return -1
}

// add appends a record under the innermost open element.
func (b *Builder) add(kind Kind, name int32) *record {
	i := int32(len(b.d.nodes))
	if len(b.d.nodes) == cap(b.d.nodes) {
		// Double: past 256 records append grows by a quarter, and a table
		// grown from empty would copy itself four times over.
		b.d.nodes = slices.Grow(b.d.nodes, cap(b.d.nodes))
	}
	b.d.nodes = append(b.d.nodes, record{kind: kind, name: name, parent: b.parent(), end: i,
		off: uint32(b.text.Len()), attr: uint32(len(b.d.attrs))})
	if b.d.ids != nil {
		b.d.ids = append(b.d.ids, b.d.base+NodeID(i))
	}
	b.attrsOK = kind == Element
	return &b.d.nodes[i]
}

func (b *Builder) startElement(name int32) {
	b.add(Element, name)
	b.open = append(b.open, int32(len(b.d.nodes)-1))
}

// StartElement opens an element named name with attrs, in order, as the
// loader is given it; it is scan.Handler's method.
func (b *Builder) StartElement(name []byte, attrs []scan.Attr) {
	b.startElement(b.nameOf(name))
	if len(attrs) == 0 {
		return
	}
	r := &b.d.nodes[len(b.d.nodes)-1]
	for _, a := range attrs {
		b.d.attrs = append(b.d.attrs, attrRecord{name: b.nameOf(a.Name), off: uint32(b.vals.Len()), n: uint32(len(a.Value))})
		b.vals.Grow(len(a.Value))
		b.vals.Write(a.Value)
	}
	r.nattr = uint32(len(attrs))
	b.d.vals = b.vals.String()
}

// Start opens an element tagged tag, with no attributes yet.
func (b *Builder) Start(tag string) { b.startElement(b.nameOfString(tag)) }

// Attr sets an attribute of the element just started, overwriting one of
// the same name; it must come before the element's first child.
func (b *Builder) Attr(name, value string) {
	if !b.attrsOK {
		panic("tree: Builder.Attr after the element's content")
	}
	r := &b.d.nodes[len(b.d.nodes)-1]
	a := attrRecord{name: b.nameOfString(name), off: uint32(b.vals.Len()), n: uint32(len(value))}
	b.vals.WriteString(value)
	b.d.vals = b.vals.String()
	for k := r.attr; k < r.attr+r.nattr; k++ {
		if b.d.attrs[k].name == a.name {
			b.d.attrs[k] = a
			return
		}
	}
	b.d.attrs = append(b.d.attrs, a)
	r.nattr++
}

// Text appends a text node holding data; it is scan.Handler's method.
func (b *Builder) Text(data []byte) {
	b.add(Text, -1).n = uint32(len(data))
	b.text.Grow(len(data)) // doubles when it must grow; Write, by append, would not
	b.text.Write(data)
	b.d.text = b.text.String()
}

// TextString appends a text node holding s.
func (b *Builder) TextString(s string) {
	b.add(Text, -1).n = uint32(len(s))
	b.text.Grow(len(s))
	b.text.WriteString(s)
	b.d.text = b.text.String()
}

// EndElement closes the innermost open element; it is scan.Handler's
// method.
func (b *Builder) EndElement() {
	top := b.open[len(b.open)-1]
	b.open = b.open[:len(b.open)-1]
	r := &b.d.nodes[top]
	r.end = int32(len(b.d.nodes) - 1)
	r.n = uint32(b.text.Len()) - r.off
	b.attrsOK = false
}

// SetID gives the node made last the identifier id instead of its
// position: a pruner keeps the IDs of the nodes it keeps (Def. 2.1
// compares trees by identity). IDs must still follow document order.
func (b *Builder) SetID(id NodeID) {
	i := len(b.d.nodes) - 1
	if b.d.ids == nil {
		if id == b.d.base+NodeID(i) {
			return
		}
		b.d.ids = make([]NodeID, i+1, cap(b.d.nodes))
		for k := range b.d.ids {
			b.d.ids[k] = b.d.base + NodeID(k)
		}
	}
	b.d.ids[i] = id
}

// Copy appends a deep copy of n's subtree where the next child goes: a
// range copy of its records, one copy of its text and its attributes'.
// The copy's nodes are new nodes, with IDs of their own. n may belong to
// the document being built.
func (b *Builder) Copy(n Node) {
	src := n.d
	lo, hi := n.i, src.nodes[n.i].end
	at, parent := int32(len(b.d.nodes)), b.parent()
	top := src.nodes[lo]
	shift := uint32(b.text.Len()) - top.off // modular: offsets only move up
	b.text.WriteString(src.text[top.off : top.off+top.n])
	// A name is numbered by the document it is in.
	name := func(k int32) int32 {
		if src == b.d || k < 0 {
			return k
		}
		return b.nameOfString(src.names[k])
	}
	b.d.nodes = slices.Grow(b.d.nodes, int(hi-lo+1))
	for i := lo; i <= hi; i++ {
		r := src.nodes[i]
		r.end += at - lo
		r.parent += at - lo
		r.off += shift
		r.name = name(r.name)
		na := uint32(len(b.d.attrs))
		for _, a := range src.attrs[r.attr : r.attr+r.nattr] {
			a.name = name(a.name)
			v := src.vals[a.off : a.off+a.n]
			a.off = uint32(b.vals.Len())
			b.vals.WriteString(v)
			b.d.attrs = append(b.d.attrs, a)
		}
		r.attr = na
		if i == lo {
			r.parent = parent
		}
		b.d.nodes = append(b.d.nodes, r)
		if b.d.ids != nil {
			b.d.ids = append(b.d.ids, b.d.base+NodeID(len(b.d.nodes)-1))
		}
	}
	b.attrsOK = false
	b.sync()
}

// nameOf returns the number of a name read from input.
func (b *Builder) nameOf(name []byte) int32 {
	slot := &b.recent[uint8((uint32(len(name))*0x9E3779B1^uint32(name[0])*0x85EBCA6B^uint32(name[len(name)-1])*0xC2B2AE35^uint32(name[len(name)/2])*0x27D4EB2F)>>24)]
	if n := *slot - 1; n >= 0 && b.d.names[n] == string(name) {
		return n
	}
	n, ok := b.d.byName[string(name)]
	if !ok {
		n = b.newName(string(name))
	}
	*slot = n + 1
	return n
}

func (b *Builder) nameOfString(name string) int32 {
	if n, ok := b.d.byName[name]; ok {
		return n
	}
	return b.newName(name)
}

func (b *Builder) newName(name string) int32 {
	n := int32(len(b.d.names))
	b.d.names = append(b.d.names, name)
	b.d.byName[name] = n
	return n
}
