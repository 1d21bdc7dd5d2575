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

// WriteXML serialises the document to w as XML. The output is
// deterministic: attributes in stored order, text escaped, no added
// whitespace.
func (d *Document) WriteXML(w io.Writer) error {
	bw := &errWriter{w: w}
	writeNode(bw, d.Root)
	return bw.err
}

// XML returns the document serialised as a string.
func (d *Document) XML() string {
	var sb strings.Builder
	_ = d.WriteXML(&sb)
	return sb.String()
}

// SerializedSize returns the number of bytes of the XML serialisation of d,
// without materialising it.
func (d *Document) SerializedSize() int64 {
	cw := &countWriter{}
	_ = d.WriteXML(cw)
	return cw.n
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) WriteString(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func writeNode(w *errWriter, n *Node) {
	if n == nil {
		return
	}
	if n.Kind == Text {
		w.WriteString(EscapeText(n.Data))
		return
	}
	w.WriteString("<")
	w.WriteString(n.Tag)
	for _, a := range n.Attrs {
		w.WriteString(" ")
		w.WriteString(a.Name)
		w.WriteString("=\"")
		w.WriteString(EscapeAttr(a.Value))
		w.WriteString("\"")
	}
	if len(n.Children) == 0 {
		w.WriteString("/>")
		return
	}
	w.WriteString(">")
	for _, c := range n.Children {
		writeNode(w, c)
	}
	w.WriteString("</")
	w.WriteString(n.Tag)
	w.WriteString(">")
}

// WriteIndentedXML serialises the document with two-space indentation for
// human consumption. Mixed content (elements with text children) is left
// on one line so no significant whitespace is introduced.
func (d *Document) WriteIndentedXML(w io.Writer) error {
	bw := &errWriter{w: w}
	writeIndented(bw, d.Root, 0)
	bw.WriteString("\n")
	return bw.err
}

// IndentedXML returns the indented serialisation as a string.
func (d *Document) IndentedXML() string {
	var sb strings.Builder
	_ = d.WriteIndentedXML(&sb)
	return sb.String()
}

func writeIndented(w *errWriter, n *Node, depth int) {
	if n == nil {
		return
	}
	pad := strings.Repeat("  ", depth)
	w.WriteString(pad)
	if n.Kind == Text {
		w.WriteString(EscapeText(n.Data))
		return
	}
	// Mixed or leaf content stays on one line.
	inline := len(n.Children) == 0
	for _, c := range n.Children {
		if c.Kind == Text {
			inline = true
			break
		}
	}
	if inline {
		sub := Document{Root: n}
		w.WriteString(sub.XML())
		return
	}
	w.WriteString("<")
	w.WriteString(n.Tag)
	for _, a := range n.Attrs {
		w.WriteString(" ")
		w.WriteString(a.Name)
		w.WriteString("=\"")
		w.WriteString(EscapeAttr(a.Value))
		w.WriteString("\"")
	}
	w.WriteString(">\n")
	for _, c := range n.Children {
		writeIndented(w, c, depth+1)
		w.WriteString("\n")
	}
	w.WriteString(pad)
	w.WriteString("</")
	w.WriteString(n.Tag)
	w.WriteString(">")
}

// The replacers are safe for concurrent use and cost a table build each,
// so there is one of each.
var (
	textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", "\"", "&quot;")
)

// EscapeText escapes character data for element content.
func EscapeText(s string) string {
	if !strings.ContainsAny(s, "&<>") {
		return s
	}
	return textEscaper.Replace(s)
}

// EscapeAttr escapes character data for a double-quoted attribute value.
func EscapeAttr(s string) string {
	if !strings.ContainsAny(s, "&<>\"") {
		return s
	}
	return attrEscaper.Replace(s)
}
