// Package testkit holds what the tests of more than one package share:
// structural equality and Def. 2.1's projection order on trees, a
// grammar's names, the function library's names, a parse of a known-good
// XPath expression, an evaluation to a node-set and a rendering of what a
// prune gathered. Only tests import it.
//
// Defended by: test oracle (the tree comparisons and the grammar, library, XPath and output helpers the tests of several packages share).
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
