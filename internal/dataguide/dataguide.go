// Package dataguide implements the paper's §7 future-work extension:
// applying type-based projection "in the absence of DTDs, by using
// dataguides/path-summaries instead".
//
// FromDocument scans a document once and synthesises a local tree grammar
// — a dataguide — that the document is valid against by construction: for
// every element tag it records the set of child tags, whether text
// occurs, and the attributes seen, and declares the content model as the
// star-guarded union of the observations. The type projector inferred
// against this grammar is then sound for the document that produced it
// (and for any document with the same structural summary).
//
// Compared to a hand-written DTD a dataguide is weaker — every content
// model is (a | b | …)* — but the reachability structure, which is what
// drives projector inference, is exactly the document's own.
//
// Defended by: §7 (projection without a schema, xmlproj.InferDTD).
package dataguide

import (
	"fmt"
	"sort"

	"xmlproj/internal/dtd"
	"xmlproj/internal/tree"
)

// FromDocument builds the dataguide grammar of a document.
func FromDocument(doc *tree.Document) (*dtd.DTD, error) {
	if doc.NumNodes() == 0 {
		return nil, fmt.Errorf("dataguide: empty document")
	}
	type info struct {
		children map[string]bool
		attrs    map[string]bool
		text     bool
	}
	infos := map[string]*info{}
	order := []string{}
	get := func(tag string) *info {
		if in, ok := infos[tag]; ok {
			return in
		}
		in := &info{children: map[string]bool{}, attrs: map[string]bool{}}
		infos[tag] = in
		order = append(order, tag)
		return in
	}

	for i := range int32(doc.NumNodes()) {
		n := doc.At(i)
		if n.Kind() != tree.Element {
			continue
		}
		in := get(n.Tag())
		for k := range n.NumAttrs() {
			in.attrs[n.AttrAt(k).Name] = true
		}
		for c := n.FirstChild(); c.Valid(); c = c.NextSibling() {
			if c.Kind() == tree.Text {
				in.text = true
			} else {
				in.children[c.Tag()] = true
			}
		}
	}

	// Render as DTD source and reuse the DTD machinery (automata, caches,
	// property checks) unchanged.
	var sb []byte
	for _, tag := range order {
		in := infos[tag]
		kids := make([]string, 0, len(in.children))
		for k := range in.children {
			kids = append(kids, k)
		}
		sort.Strings(kids)
		switch {
		case len(kids) == 0 && !in.text:
			sb = fmt.Appendf(sb, "<!ELEMENT %s EMPTY>\n", tag)
		case len(kids) == 0:
			sb = fmt.Appendf(sb, "<!ELEMENT %s (#PCDATA)>\n", tag)
		default:
			// The star-guarded union of everything observed. #PCDATA is
			// included only when text was seen, so the grammar does not
			// invent a text name the document never uses.
			sb = fmt.Appendf(sb, "<!ELEMENT %s (", tag)
			if in.text {
				sb = append(sb, "#PCDATA | "...)
			}
			sb = fmt.Appendf(sb, "%s", kids[0])
			for _, k := range kids[1:] {
				sb = fmt.Appendf(sb, " | %s", k)
			}
			sb = append(sb, ")*>\n"...)
		}
		sb = appendAttrs(sb, tag, in.attrs)
	}
	return dtd.ParseString(string(sb), doc.Root().Tag())
}

func appendAttrs(sb []byte, tag string, attrs map[string]bool) []byte {
	if len(attrs) == 0 {
		return sb
	}
	names := make([]string, 0, len(attrs))
	for a := range attrs {
		names = append(names, a)
	}
	sort.Strings(names)
	sb = fmt.Appendf(sb, "<!ATTLIST %s", tag)
	for _, a := range names {
		sb = fmt.Appendf(sb, " %s CDATA #IMPLIED", a)
	}
	return append(sb, ">\n"...)
}
