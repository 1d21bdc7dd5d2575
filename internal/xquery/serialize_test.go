package xquery

import (
	"strings"
	"testing"

	"xmlproj/internal/tree"
	"xmlproj/internal/xpath"
)

// perItem renders a result item by item, as serialize did before it
// rendered each node once: a node's own XML, an attribute's value, an
// atomic's string, one item a line.
func perItem(items Seq) string {
	parts := make([]string, len(items))
	for i, it := range items {
		switch r, ok := it.(xpath.NodeRef); {
		case ok && r.IsAttr():
			parts[i] = r.StringValue()
		case ok:
			var sb strings.Builder
			r.N().AppendXML(&sb)
			parts[i] = sb.String()
		default:
			parts[i] = xpath.ToString(it)
		}
	}
	return strings.Join(parts, "\n")
}

// TestSerializeRendersOnce holds serialize, which copies a node inside
// the last node it rendered whole out of that rendering, to the per-item
// rendering it replaced, byte for byte, on every shape a result takes:
// nested elements, text inside a rendered element, attribute and atomic
// items between nodes, a document interleaved with its constructed
// store, a sequence out of document order, repeated items and nothing.
// The document escapes in text and in values, so spans are not lengths
// of the stored strings.
func TestSerializeRendersOnce(t *testing.T) {
	doc, err := tree.ParseString(`<r a="q&quot;&lt;"><p id="1">x &amp; y<q/>z&#13;</p><p id="2"><q k="&gt;">w</q></p>tail</r>`)
	if err != nil {
		t.Fatal(err)
	}
	// 0 r, 1 p, 2 "x & y", 3 q, 4 "z\r", 5 p, 6 q, 7 "w", 8 "tail"
	store := tree.NewStore(doc)
	store.Start("c")
	store.Attr("x", `<1"`)
	store.Start("d")
	store.TextString("t&\r")
	store.EndElement()
	store.EndElement()
	constructed := store.Document()
	at := func(d *tree.Document, i int32) Item { return xpath.ElemRef(d.At(i)) }
	n := func(is ...int32) Seq {
		s := Seq{}
		for _, i := range is {
			s = append(s, at(doc, i))
		}
		return s
	}
	attr := func(i int32) Item { return xpath.AttrRef(doc.At(i), 0) }
	every := Seq{}
	for i := range int32(doc.NumNodes()) {
		every = append(every, at(doc, i))
	}
	for _, c := range []struct {
		name  string
		items Seq
	}{
		{"every node in document order", every},
		{"nested elements", n(1, 2, 3, 4, 5, 6, 7)},
		{"an element, then one inside it that is not the next record", n(0, 6, 7)},
		{"text inside a rendered element", n(1, 2, 4, 5, 7)},
		{"attributes between nodes", Seq{at(doc, 0), attr(0), at(doc, 1), attr(1), at(doc, 2), at(doc, 6)}},
		{"atomics between nodes", Seq{at(doc, 1), "s", at(doc, 2), 3.0, at(doc, 3), true}},
		{"a document and its store interleaved", Seq{at(doc, 1), at(constructed, 0), at(constructed, 1), at(doc, 2), at(doc, 3), at(constructed, 2)}},
		{"out of document order", n(5, 1, 2, 0, 3, 8, 7)},
		{"repeated items", n(1, 1, 2, 2, 0, 0, 8)},
		{"the empty result", nil},
	} {
		want := perItem(c.items)
		if got := Serialize(c.items); got != want {
			t.Errorf("%s: Serialize wrote\n%q\nwant\n%q", c.name, got, want)
		}
		var ns xpath.NodeSet
		for _, it := range c.items {
			r, ok := it.(xpath.NodeRef)
			if !ok {
				ns = nil
				break
			}
			ns = append(ns, r)
		}
		if ns != nil || len(c.items) == 0 {
			if got := SerializeNodes(ns); got != want {
				t.Errorf("%s: SerializeNodes wrote\n%q\nwant\n%q", c.name, got, want)
			}
		}
	}
}
