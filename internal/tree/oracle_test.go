package tree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// parseOracle is the loader as it was before it moved onto internal/scan:
// encoding/xml's strict decoder, one heap node per node, a Renumber walk
// at the end. The differential tests hold Parse to it: same verdict,
// and on accept the same tree, node IDs and serialisation.
//
// nsNamed reports the one input shape the two are not compared on: a
// prefix bound to the namespace name "xmlns". encoding/xml hands back
// the resolved namespace, so this loop drops every attribute carrying
// such a prefix as if it were a declaration; Parse, like the pruner,
// goes by the prefix as spelled.
func parseOracle(r io.Reader) (doc *Document, nsNamed bool, err error) {
	dec := xml.NewDecoder(r)
	dec.Strict = true
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nsNamed, fmt.Errorf("tree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := &Node{Kind: Element, Tag: t.Name.Local}
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					if a.Value == "xmlns" {
						nsNamed = true
					}
					continue
				}
				n.Attrs = append(n.Attrs, Attr{Name: a.Name.Local, Value: a.Value})
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, nsNamed, fmt.Errorf("tree: parse: multiple root elements")
				}
				root = n
			} else {
				stack[len(stack)-1].Append(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, nsNamed, fmt.Errorf("tree: parse: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue // text outside the root
			}
			s := string(t)
			if strings.TrimSpace(s) == "" {
				continue
			}
			parent := stack[len(stack)-1]
			// Merge adjacent character data (comment, PI and CDATA boundaries).
			if k := len(parent.Children); k > 0 && parent.Children[k-1].Kind == Text {
				parent.Children[k-1].Data += s
				continue
			}
			parent.Append(NewText(s))
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Outside the data model; ignored.
		}
	}
	if root == nil {
		return nil, nsNamed, fmt.Errorf("tree: parse: no root element")
	}
	if len(stack) != 0 {
		return nil, nsNamed, fmt.Errorf("tree: parse: unterminated element %s", stack[len(stack)-1].Tag)
	}
	return NewDocument(root), nsNamed, nil
}

// diffOracle loads src both ways and describes the first disagreement,
// or returns "". Beyond Equal it compares what Equal does not: node IDs,
// parent and index links, NumNodes and the serialisation.
func diffOracle(src []byte) string {
	want, nsNamed, werr := parseOracle(strings.NewReader(string(src)))
	got, gerr := ParseBytes(src)
	if (werr == nil) != (gerr == nil) {
		return fmt.Sprintf("verdicts differ: oracle %v, loader %v", werr, gerr)
	}
	if werr != nil || nsNamed {
		return ""
	}
	if got.NumNodes() != want.NumNodes() {
		return fmt.Sprintf("NumNodes %d, oracle %d", got.NumNodes(), want.NumNodes())
	}
	if d := diffNode(got.Root, want.Root, nil); d != "" {
		return d
	}
	if g, w := got.XML(), want.XML(); g != w {
		return fmt.Sprintf("XML() differs:\nloader %q\noracle %q", g, w)
	}
	return ""
}

func diffNode(g, w, parent *Node) string {
	if g.ID != w.ID || g.Kind != w.Kind || g.Tag != w.Tag || g.Data != w.Data || g.Index != w.Index {
		return fmt.Sprintf("node differs: loader %+v, oracle %+v", *g, *w)
	}
	if g.Parent != parent {
		return fmt.Sprintf("node %d: parent link is %p, want %p", g.ID, g.Parent, parent)
	}
	if len(g.Attrs) != len(w.Attrs) || len(g.Children) != len(w.Children) {
		return fmt.Sprintf("node %d <%s>: %d attrs and %d children, oracle %d and %d",
			g.ID, g.Tag, len(g.Attrs), len(g.Children), len(w.Attrs), len(w.Children))
	}
	for i := range g.Attrs {
		if g.Attrs[i] != w.Attrs[i] {
			return fmt.Sprintf("node %d <%s>: attr %d is %+v, oracle %+v", g.ID, g.Tag, i, g.Attrs[i], w.Attrs[i])
		}
	}
	for i := range g.Children {
		if d := diffNode(g.Children[i], w.Children[i], g); d != "" {
			return d
		}
	}
	return ""
}
