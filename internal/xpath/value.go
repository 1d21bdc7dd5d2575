package xpath

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"strings"

	"xmlproj/internal/tree"
)

// NodeRef identifies a node in the XPath sense: either a tree node
// (element or text) or one of an element's attributes. It is a document,
// the index of the node's record and the attribute's index: 16 bytes,
// compared and copied as a value.
type NodeRef struct {
	doc  *tree.Document
	node int32
	attr int32 // -1 for the node itself
}

// ElemRef wraps a tree node as a NodeRef.
func ElemRef(n tree.Node) NodeRef { return NodeRef{n.Doc(), n.Index(), -1} }

// AttrRef designates the i-th attribute of the element n.
func AttrRef(n tree.Node, i int) NodeRef { return NodeRef{n.Doc(), n.Index(), int32(i)} }

func ref(d *tree.Document, i int32) NodeRef { return NodeRef{d, i, -1} }

// N returns the tree node: the node itself, or an attribute's element.
func (r NodeRef) N() tree.Node { return r.doc.At(r.node) }

// IsAttr reports whether the ref designates an attribute node.
func (r NodeRef) IsAttr() bool { return r.attr >= 0 }

// id is the node's ID, which orders it.
func (r NodeRef) id() tree.NodeID { return r.doc.IDAt(r.node) }

// StringValue returns the XPath string-value of the node.
func (r NodeRef) StringValue() string {
	if r.IsAttr() {
		return r.N().AttrAt(int(r.attr)).Value
	}
	return r.N().StringValue()
}

// Name returns the expanded name: tag for elements, attribute name for
// attribute nodes, empty for text nodes.
func (r NodeRef) Name() string {
	if r.IsAttr() {
		return r.N().AttrAt(int(r.attr)).Name
	}
	return r.N().Tag()
}

// compareRefs orders nodes in document order: by node ID, an attribute
// node after its owner element and before the element's children, which
// have larger IDs.
func compareRefs(a, b NodeRef) int {
	if c := cmp.Compare(a.id(), b.id()); c != 0 {
		return c
	}
	return cmp.Compare(a.attr, b.attr)
}

// NodeSet is a set of nodes. The evaluation engine keeps node-sets sorted
// in document order and duplicate-free.
type NodeSet []NodeRef

// SortDoc puts the set in document order and removes duplicates, in
// place. Most sets arrive that way — the step loop keeps order instead of
// restoring it — so one linear pass decides: a strictly ordered set is
// returned as it is, an ordered one with repeats is only compacted.
func (s NodeSet) SortDoc() NodeSet {
	strict := true
	for i := 1; i < len(s); i++ {
		c := compareRefs(s[i-1], s[i])
		if c >= 0 {
			strict = false
		}
		if c > 0 {
			slices.SortFunc(s, compareRefs)
			break
		}
	}
	if strict {
		return s
	}
	return slices.Compact(s)
}

// Value is an XPath value: one of NodeSet, float64, string, bool.
type Value interface{}

// ToBoolean implements the boolean() conversion.
func ToBoolean(v Value) bool {
	switch x := v.(type) {
	case NodeSet:
		return len(x) > 0
	case bool:
		return x
	case float64:
		return x != 0 && !math.IsNaN(x)
	case string:
		return len(x) > 0
	}
	return false
}

// ToString implements the string() conversion.
func ToString(v Value) string {
	switch x := v.(type) {
	case NodeSet:
		if len(x) == 0 {
			return ""
		}
		return x[0].StringValue()
	case NodeRef: // an item of a Seq
		return x.StringValue()
	case bool:
		if x {
			return "true"
		}
		return "false"
	case float64:
		return FormatNumber(x)
	case string:
		return x
	}
	return ""
}

// ToNumber implements the number() conversion.
func ToNumber(v Value) float64 {
	switch x := v.(type) {
	case NodeSet:
		return ToNumber(ToString(v))
	case bool:
		if x {
			return 1
		}
		return 0
	case float64:
		return x
	case string:
		f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
		if err != nil {
			return math.NaN()
		}
		return f
	}
	return math.NaN()
}

// FormatNumber renders a float per the XPath string() rules: integers
// without a decimal point, NaN as "NaN", infinities as "Infinity".
func FormatNumber(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return strconv.FormatFloat(f, 'f', -1, 64)
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}
