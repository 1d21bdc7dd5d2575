package tree

import (
	"io"
	"strings"

	"xmlproj/internal/scan"
)

// The serialiser is two loops over one grammar: XMLSize (XMLSpans) counts
// the bytes writeTree will write, so a caller that renders into memory
// sizes its buffer once and writes every tag, attribute and escaped run
// straight into it. Both run over a subtree's range of records, in the
// same order. The output is deterministic: attributes in stored order,
// text escaped, no added whitespace.

// WriteXML serialises the document to w as XML.
func (d *Document) WriteXML(w io.Writer) error {
	bw := &errWriter{w: w}
	if root := d.Root(); root.Valid() {
		writeTree(bw, root)
	}
	return bw.err
}

// XML returns the document serialised as a string.
func (d *Document) XML() string {
	root := d.Root()
	if !root.Valid() {
		return ""
	}
	var sb strings.Builder
	sb.Grow(root.XMLSize())
	root.AppendXML(&sb)
	return sb.String()
}

// SerializedSize returns the number of bytes of the XML serialisation of d,
// without materialising it.
func (d *Document) SerializedSize() int64 {
	if root := d.Root(); root.Valid() {
		return int64(root.XMLSize())
	}
	return 0
}

// AppendXML writes the serialisation of the subtree rooted at n to sb;
// XMLSize says how much room it takes.
func (n Node) AppendXML(sb *strings.Builder) { writeTree(sb, n) }

// XMLSize returns the number of bytes AppendXML writes for n.
func (n Node) XMLSize() int { return n.XMLSpans(nil) }

// Span is where a node's serialisation starts and ends within the
// serialisation of a subtree that holds it. Its offsets are 32-bit, as a
// document's text offsets are, so a caller uses no span of a rendering of
// 2 GiB or more.
type Span struct{ Start, End int32 }

// XMLSpans is XMLSize, recording in spans, when it is not nil, where the
// serialisation of each record of n's subtree starts and ends in n's:
// spans[k] for the k-th record from n's, so len(spans) is the subtree's
// record count. Serialisation is context-free — no namespace declaration
// and no indentation depends on what encloses a node — so a copy of a
// descendant's span is its XML. It is writeTree's loop, counting.
func (n Node) XMLSpans(spans []Span) int {
	d, size := n.d, 0
	for i := n.i; i <= d.nodes[n.i].end; i++ {
		r := &d.nodes[i]
		if spans != nil {
			spans[i-n.i].Start = int32(size)
		}
		if r.kind == Text {
			size += escapedSize(d.text[r.off:r.off+r.n], false)
		} else {
			size += openTagSize(d, r)
			if r.end > i {
				size += len(">")
				continue
			}
			size += len("/>")
		}
		if spans != nil {
			spans[i-n.i].End = int32(size)
		}
		for p := r.parent; p >= n.i && d.nodes[p].end == i; p = d.nodes[p].parent {
			size += len("</>") + len(d.names[d.nodes[p].name])
			if spans != nil {
				spans[p-n.i].End = int32(size)
			}
		}
	}
	return size
}

// writeTree writes n's subtree record by record: a leaf — text or an
// empty element — ends the elements whose subtrees end with it.
func writeTree(w io.StringWriter, n Node) {
	d := n.d
	for i := n.i; i <= d.nodes[n.i].end; i++ {
		r := &d.nodes[i]
		if r.kind == Text {
			writeEscaped(w, d.text[r.off:r.off+r.n], false)
		} else {
			writeOpenTag(w, d, r)
			if r.end > i {
				w.WriteString(">")
				continue
			}
			w.WriteString("/>")
		}
		for p := r.parent; p >= n.i && d.nodes[p].end == i; p = d.nodes[p].parent {
			w.WriteString("</")
			w.WriteString(d.names[d.nodes[p].name])
			w.WriteString(">")
		}
	}
}

// writeOpenTag writes a start tag up to, not including, its closing ">".
func writeOpenTag(w io.StringWriter, d *Document, r *record) {
	w.WriteString("<")
	w.WriteString(d.names[r.name])
	for _, a := range d.attrs[r.attr : r.attr+r.nattr] {
		w.WriteString(" ")
		w.WriteString(d.names[a.name])
		w.WriteString("=\"")
		writeEscaped(w, d.vals[a.off:a.off+a.n], true)
		w.WriteString("\"")
	}
}

// openTagSize is the number of bytes writeOpenTag writes for r.
func openTagSize(d *Document, r *record) int {
	size := len("<") + len(d.names[r.name])
	for _, a := range d.attrs[r.attr : r.attr+r.nattr] {
		size += len(` =""`) + len(d.names[a.name]) + escapedSize(d.vals[a.off:a.off+a.n], true)
	}
	return size
}

// special returns the index of the first byte of s that element content
// (quot false) or a double-quoted attribute value (quot true) must
// escape, or -1. Most strings have none, and four or five vectorised
// searches of a short string cost less than one byte loop over it.
func special(s string, quot bool) int {
	set := "&<>\r\""
	if !quot {
		set = set[:4]
	}
	at := -1
	for i := 0; i < len(set); i++ {
		if j := strings.IndexByte(s, set[i]); j >= 0 {
			at, s = j, s[:j]
		}
	}
	return at
}

func escapedSize(s string, quot bool) int {
	size := len(s)
	if i := special(s, quot); i >= 0 {
		for ; i < len(s); i++ {
			if e := scan.Entity(s[i], quot); e != "" {
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
		if e := scan.Entity(s[i], quot); e != "" {
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
