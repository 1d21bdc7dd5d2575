package tree

import (
	"io"
	"strings"
)

// The serialiser is two walks over one grammar: XMLSize counts the bytes
// writeNode will write, so a caller that renders into memory sizes its
// buffer once and writes every tag, attribute and escaped run straight
// into it. The output is deterministic: attributes in stored order, text
// escaped, no added whitespace.

// WriteXML serialises the document to w as XML.
func (d *Document) WriteXML(w io.Writer) error {
	bw := &errWriter{w: w}
	writeNode(bw, d.Root)
	return bw.err
}

// XML returns the document serialised as a string.
func (d *Document) XML() string {
	var sb strings.Builder
	sb.Grow(d.Root.XMLSize())
	d.Root.AppendXML(&sb)
	return sb.String()
}

// SerializedSize returns the number of bytes of the XML serialisation of d,
// without materialising it.
func (d *Document) SerializedSize() int64 { return int64(d.Root.XMLSize()) }

// AppendXML writes the serialisation of the subtree rooted at n to sb;
// XMLSize says how much room it takes.
func (n *Node) AppendXML(sb *strings.Builder) { writeNode(sb, n) }

// XMLSize returns the number of bytes AppendXML writes for n.
func (n *Node) XMLSize() int {
	if n == nil {
		return 0
	}
	if n.Kind == Text {
		return escapedSize(n.Data, false)
	}
	size := len("<") + len(n.Tag) + len("/>")
	for _, a := range n.Attrs {
		size += len(` =""`) + len(a.Name) + escapedSize(a.Value, true)
	}
	if len(n.Children) == 0 {
		return size
	}
	size += len("</") + len(n.Tag) // "<tag>" and "</tag>" are one "/" short of "<tag/>" twice
	for _, c := range n.Children {
		size += c.XMLSize()
	}
	return size
}

func writeNode(w io.StringWriter, n *Node) {
	if n == nil {
		return
	}
	if n.Kind == Text {
		writeEscaped(w, n.Data, false)
		return
	}
	writeOpenTag(w, n)
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

// writeOpenTag writes a start tag up to, not including, its closing ">".
func writeOpenTag(w io.StringWriter, n *Node) {
	w.WriteString("<")
	w.WriteString(n.Tag)
	for _, a := range n.Attrs {
		w.WriteString(" ")
		w.WriteString(a.Name)
		w.WriteString("=\"")
		writeEscaped(w, a.Value, true)
		w.WriteString("\"")
	}
}

// special returns the index of the first byte of s that element content
// (quot false) or a double-quoted attribute value (quot true) must
// escape, or -1. Most strings have none, and three or four vectorised
// searches of a short string cost less than one byte loop over it.
func special(s string, quot bool) int {
	set := `&<>"`
	if !quot {
		set = set[:3]
	}
	at := -1
	for i := 0; i < len(set); i++ {
		if j := strings.IndexByte(s, set[i]); j >= 0 {
			at, s = j, s[:j]
		}
	}
	return at
}

// entity returns what c is written as, or "" for a byte written as it is.
func entity(c byte, quot bool) string {
	switch c {
	case '&':
		return "&amp;"
	case '<':
		return "&lt;"
	case '>':
		return "&gt;"
	case '"':
		if quot {
			return "&quot;"
		}
	}
	return ""
}

func escapedSize(s string, quot bool) int {
	size := len(s)
	if i := special(s, quot); i >= 0 {
		for ; i < len(s); i++ {
			if e := entity(s[i], quot); e != "" {
				size += len(e) - 1
			}
		}
	}
	return size
}

func writeEscaped(w io.StringWriter, s string, quot bool) {
	i := special(s, quot)
	if i < 0 {
		w.WriteString(s)
		return
	}
	from := 0
	for ; i < len(s); i++ {
		if e := entity(s[i], quot); e != "" {
			w.WriteString(s[from:i])
			w.WriteString(e)
			from = i + 1
		}
	}
	w.WriteString(s[from:])
}

// errWriter adapts an io.Writer to the node writer: the first error
// sticks and later writes are dropped.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) WriteString(s string) (int, error) {
	if e.err == nil {
		_, e.err = io.WriteString(e.w, s)
	}
	return len(s), e.err
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
	_ = d.WriteIndentedXML(&sb) // a Builder's writes do not fail
	return sb.String()
}

func writeIndented(w *errWriter, n *Node, depth int) {
	if n == nil {
		return
	}
	pad := strings.Repeat("  ", depth)
	w.WriteString(pad)
	// Text, and mixed or leaf content, stays on one line.
	inline := n.Kind == Text || len(n.Children) == 0
	for _, c := range n.Children {
		if c.Kind == Text {
			inline = true
			break
		}
	}
	if inline {
		writeNode(w, n)
		return
	}
	writeOpenTag(w, n)
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
