// Package testkit holds what the tests of more than one package share:
// structural equality and Def. 2.1's projection order on trees, the
// tree walker that prunes a loaded document (Def. 2.7), a grammar's
// names, the function library's names, a parse of a known-good XPath
// expression, an evaluation to a node-set and a rendering of what a prune
// gathered. Only tests import it.
//
// Defended by: test oracle (the tree comparisons, the tree pruner and the grammar, library, XPath and output helpers the tests of several packages share).
package testkit

import (
	"bytes"
	"fmt"
	"io"

	"xmlproj/internal/dtd"
	"xmlproj/internal/tree"
	"xmlproj/internal/xpath"
)

// Equal reports structural equality of two trees: same kinds, tags, data,
// attributes (ordered) and children. Node IDs are ignored.
func Equal(a, b tree.Node) bool {
	if !a.Valid() || !b.Valid() {
		return a.Valid() == b.Valid()
	}
	if a.Kind() != b.Kind() || a.Tag() != b.Tag() || a.Data() != b.Data() || a.NumAttrs() != b.NumAttrs() {
		return false
	}
	for i := range a.NumAttrs() {
		if a.AttrAt(i) != b.AttrAt(i) {
			return false
		}
	}
	x, y := a.FirstChild(), b.FirstChild()
	for ; x.Valid() && y.Valid(); x, y = x.NextSibling(), y.NextSibling() {
		if !Equal(x, y) {
			return false
		}
	}
	return x.Valid() == y.Valid()
}

// IsProjectionOf reports whether tree p is a projection of tree t in the
// sense of Def. 2.1: p is obtained from t by replacing some subforests with
// the empty forest. Matching is by node identity (IDs), so both trees must
// stem from the same numbering.
func IsProjectionOf(p, t tree.Node) bool {
	if p.ID() != t.ID() || p.Kind() != t.Kind() || p.Tag() != t.Tag() || p.Data() != t.Data() {
		return false
	}
	// Children of p must be an ID-subsequence of children of t, each
	// recursively a projection.
	tc := t.FirstChild()
	for pc := p.FirstChild(); pc.Valid(); pc = pc.NextSibling() {
		for tc.Valid() && tc.ID() != pc.ID() {
			tc = tc.NextSibling()
		}
		if !tc.Valid() || !IsProjectionOf(pc, tc) {
			return false
		}
		tc = tc.NextSibling()
	}
	return true
}

// Prune computes the π-projection t∖π of a loaded document (Def. 2.7):
// the declarative statement of what the scanner's pass keeps, held to it
// by the tests. π is the compiled table the scanner reads, so the two
// cannot disagree about what π keeps. ℑ is a symbol lookup: an element's
// name is the symbol of its tag, a text node's the text column of its
// parent; an element the grammar does not define is in no π.
//
// The returned document shares nothing with the input; node IDs are
// preserved so that query results on the original and the pruned document
// can be compared by identity (the form of Thm. 4.5).
//
// Attributes are kept when their derived name is in π: an attribute the
// grammar does not declare on its element is in no π.
func Prune(doc *tree.Document, p *dtd.Projection) *tree.Document {
	b := tree.NewBuilder(0)
	root := doc.Root()
	if !root.Valid() {
		return b.Document()
	}
	if sym, ok := p.Syms.Lookup([]byte(root.Tag())); ok && p.KeepElem(sym) {
		pruneNode(b, p, root, sym)
	}
	return b.Document()
}

func pruneNode(b *tree.Builder, p *dtd.Projection, n tree.Node, sym int32) {
	b.Start(n.Tag())
	b.SetID(n.ID())
	decl := p.Attrs(sym)
	for i := range n.NumAttrs() {
		if a := n.AttrAt(i); keepAttr(decl, a.Name) {
			b.Attr(a.Name, a.Value)
		}
	}
	keepText := p.KeepText(sym)
	for c := n.FirstChild(); c.Valid(); c = c.NextSibling() {
		if c.Kind() == tree.Text {
			if keepText {
				b.TextString(c.Data())
				b.SetID(c.ID())
			}
		} else if csym, ok := p.Syms.Lookup([]byte(c.Tag())); ok && p.KeepElem(csym) {
			pruneNode(b, p, c, csym)
		}
	}
	b.EndElement()
}

// keepAttr is the scanner's attribute decision: the declared attribute's
// Keep.
func keepAttr(decl []dtd.AttrProj, attr string) bool {
	for i := range decl {
		if decl[i].Attr == attr {
			return decl[i].Keep
		}
	}
	return false
}

// XPath parses a known-good expression, panicking on error.
func XPath(src string) xpath.Expr {
	e, err := xpath.Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

// Select evaluates e on doc, which must produce a node-set.
func Select(doc *tree.Document, e xpath.Expr) (xpath.NodeSet, error) {
	v, err := xpath.NewEvaluator(doc).Eval(e)
	if err != nil {
		return nil, err
	}
	ns, ok := v.(xpath.NodeSet)
	if !ok {
		return nil, fmt.Errorf("%s returned %T, not a node-set", e, v)
	}
	return ns, nil
}

// Names lists the grammar's element and text names, every name but the
// attributes': the elements in declaration order, each followed by its
// text name.
func Names(d *dtd.DTD) []dtd.Name {
	s := d.Symbols()
	var out []dtd.Name
	for e := range int32(s.Len()) {
		n := s.Name(e)
		out = append(out, n)
		if _, ok := d.Defs[dtd.TextName(n)]; ok {
			out = append(out, dtd.TextName(n))
		}
	}
	return out
}

// Functions are the names of the function library, sorted. The tests of
// internal/xpath hold the list to the library.
var Functions = []string{
	"avg", "boolean", "ceiling", "concat", "contains", "count", "data",
	"distinct-values", "empty", "ends-with", "exactly-one", "exists",
	"false", "floor", "last", "local-name", "max", "min", "name",
	"normalize-space", "not", "number", "one-or-more", "position",
	"round", "starts-with", "string", "string-join", "string-length",
	"substring", "substring-after", "substring-before", "sum",
	"translate", "true", "zero-or-one",
}

// Rendered is what w writes, in one slice.
func Rendered(w io.WriterTo) []byte {
	var b bytes.Buffer
	if _, err := w.WriteTo(&b); err != nil {
		panic(err)
	}
	return b.Bytes()
}
