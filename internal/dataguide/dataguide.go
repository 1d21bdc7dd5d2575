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

	"xmlproj/internal/dtd"
	"xmlproj/internal/tree"
)

// FromDocument builds the dataguide grammar of a document: one
// dtd.Element per tag observed, handed to dtd.New like any declaration.
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
	var order []string
	for i := range int32(doc.NumNodes()) {
		n := doc.At(i)
		if n.Kind() != tree.Element {
			continue
		}
		in := infos[n.Tag()]
		if in == nil {
			in = &info{children: map[string]bool{}, attrs: map[string]bool{}}
			infos[n.Tag()] = in
			order = append(order, n.Tag())
		}
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

	// The text name is in a union only when text was seen, so the
	// grammar does not invent one the document never uses.
	elems := make([]dtd.Element, len(order))
	for i, tag := range order {
		in := infos[tag]
		elems[i] = dtd.Element{Tag: tag, Content: dtd.StarUnion(tag, in.text, in.children),
			Text: in.text, Atts: dtd.ImpliedCDATA(in.attrs)}
	}
	return dtd.New(doc.Root().Tag(), elems)
}
