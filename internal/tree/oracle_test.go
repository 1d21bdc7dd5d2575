package tree

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"xmlproj/internal/scan"
	"xmlproj/internal/scan/scantest"
)

// parseOracle is the loader as it was before it moved onto internal/scan:
// encoding/xml's strict decoder, adjacent character data merged by hand.
// It builds through the same Builder calls the loader makes, one token at
// a time. The differential tests hold Parse to it: same verdict, and on
// accept the same table, node IDs and serialisation.
//
// nsNamed reports the one input shape the two are not compared on: a
// prefix bound to the namespace name "xmlns". encoding/xml hands back
// the resolved namespace, so this loop drops every attribute carrying
// such a prefix as if it were a declaration; Parse, like the pruner,
// goes by the prefix as spelled.
//
// encoding/xml does not check XML 1.0's Unique Att Spec, so the loop does
// (scantest.RepeatedAttr).
func parseOracle(src []byte) (doc *Document, nsNamed bool, err error) {
	dec := xml.NewDecoder(bytes.NewReader(src))
	dec.Strict = true
	b := NewBuilder(0)
	var open []string
	roots := 0
	pending := "" // the text run since the last tag
	flush := func() {
		if pending != "" {
			b.TextString(pending)
			pending = ""
		}
	}
	for {
		at := dec.InputOffset()
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nsNamed, fmt.Errorf("tree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if name := scantest.RepeatedAttr(src[at:dec.InputOffset()]); name != "" {
				return nil, nsNamed, fmt.Errorf("tree: parse: attribute %s repeated", name)
			}
			var attrs []scan.Attr
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					if a.Value == "xmlns" {
						nsNamed = true
					}
					continue
				}
				attrs = append(attrs, scan.Attr{Name: []byte(a.Name.Local), Value: []byte(a.Value)})
			}
			if len(open) == 0 {
				if roots++; roots > 1 {
					return nil, nsNamed, fmt.Errorf("tree: parse: multiple root elements")
				}
			}
			flush()
			b.StartElement([]byte(t.Name.Local), attrs)
			open = append(open, t.Name.Local)
		case xml.EndElement:
			if len(open) == 0 {
				return nil, nsNamed, fmt.Errorf("tree: parse: unbalanced end element %s", t.Name.Local)
			}
			flush()
			b.EndElement()
			open = open[:len(open)-1]
		case xml.CharData:
			if len(open) == 0 {
				// Only whitespace may stand outside the root; a byte-order
				// mark opening the document is none of its text.
				s := string(t)
				if at == 0 {
					s = strings.TrimPrefix(s, "\ufeff")
				}
				if strings.TrimSpace(s) != "" {
					return nil, nsNamed, fmt.Errorf("tree: parse: text outside the root element")
				}
				continue
			}
			// Merge adjacent character data (comment, PI and CDATA boundaries).
			if s := string(t); strings.TrimSpace(s) != "" {
				pending += s
			}
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Outside the data model; ignored.
		}
	}
	if roots == 0 {
		return nil, nsNamed, fmt.Errorf("tree: parse: no root element")
	}
	if len(open) != 0 {
		return nil, nsNamed, fmt.Errorf("tree: parse: unterminated element %s", open[len(open)-1])
	}
	return b.Document(), nsNamed, nil
}

// diffOracle loads src both ways and describes the first disagreement,
// or returns "". Beyond equal it compares what equal does not: node IDs,
// parent and subtree links, NumNodes and the serialisation. It also holds
// the loader to its sizing: the text buffer is allocated once, at the
// input's length, and never grows.
func diffOracle(src []byte) string {
	want, nsNamed, werr := parseOracle(src)
	got, gerr := ParseBytes(src)
	if (werr == nil) != (gerr == nil) {
		return fmt.Sprintf("verdicts differ: oracle %v, loader %v", werr, gerr)
	}
	if gerr == nil {
		b := NewBuilder(len(src))
		c := b.text.Cap()
		if scan.Walk(src, b) == nil && b.text.Cap() != c {
			return fmt.Sprintf("the text buffer grew from %d to %d bytes", c, b.text.Cap())
		}
	}
	if werr != nil || nsNamed {
		return ""
	}
	if got.NumNodes() != want.NumNodes() {
		return fmt.Sprintf("NumNodes %d, oracle %d", got.NumNodes(), want.NumNodes())
	}
	if !equal(got.Root(), want.Root()) {
		return "the trees differ"
	}
	for i := range int32(got.NumNodes()) {
		g, w := got.At(i), want.At(i)
		if g.ID() != w.ID() || got.ParentAt(i) != want.ParentAt(i) || got.EndAt(i) != want.EndAt(i) || g.StringValue() != w.StringValue() {
			return fmt.Sprintf("node %d <%s>: ID %d, parent %d, end %d, value %q; oracle %d, %d, %d, %q", i, g.Tag(),
				g.ID(), got.ParentAt(i), got.EndAt(i), g.StringValue(),
				w.ID(), want.ParentAt(i), want.EndAt(i), w.StringValue())
		}
	}
	if g, w := got.XML(), want.XML(); g != w {
		return fmt.Sprintf("XML() differs:\nloader %q\noracle %q", g, w)
	}
	return ""
}
