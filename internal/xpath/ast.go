// Package xpath implements XPath 1.0: abstract syntax, a recursive-descent
// parser, and an in-memory evaluation engine over the tree data model.
//
// The engine plays the role Galax plays in the paper's experiments (§6): a
// main-memory processor whose time and memory costs scale with the number
// of nodes it must allocate and visit — exactly the costs that type-based
// projection reduces.
//
// Defended by: Defs. 3.1–3.3; `answer_direct` and `eval.direct_ms`.
package xpath

import (
	"fmt"
	"strconv"
	"strings"
)

// Axis is one of the XPath axes.
type Axis uint8

const (
	Child Axis = iota
	Descendant
	Parent
	Ancestor
	Self
	DescendantOrSelf
	AncestorOrSelf
	FollowingSibling
	PrecedingSibling
	Following
	Preceding
	Attribute
)

var axisNames = [...]string{
	Child:            "child",
	Descendant:       "descendant",
	Parent:           "parent",
	Ancestor:         "ancestor",
	Self:             "self",
	DescendantOrSelf: "descendant-or-self",
	AncestorOrSelf:   "ancestor-or-self",
	FollowingSibling: "following-sibling",
	PrecedingSibling: "preceding-sibling",
	Following:        "following",
	Preceding:        "preceding",
	Attribute:        "attribute",
}

func (a Axis) String() string {
	if int(a) < len(axisNames) {
		return axisNames[a]
	}
	return fmt.Sprintf("Axis(%d)", uint8(a))
}

// Upward reports whether the axis moves towards the root.
func (a Axis) Upward() bool {
	return a == Parent || a == Ancestor || a == AncestorOrSelf
}

// Reverse reports whether the axis is a reverse axis (proximity position
// counts in reverse document order).
func (a Axis) Reverse() bool {
	switch a {
	case Parent, Ancestor, AncestorOrSelf, Preceding, PrecedingSibling:
		return true
	}
	return false
}

// AxisByName maps an axis name to its Axis. Unknown names return ok=false.
func AxisByName(s string) (Axis, bool) {
	for i, n := range axisNames {
		if n == s {
			return Axis(i), true
		}
	}
	return 0, false
}

// TestKind discriminates node tests.
type TestKind uint8

const (
	// TestName matches elements (or attributes on the attribute axis) with
	// a specific name.
	TestName TestKind = iota
	// TestStar matches any element (any attribute on the attribute axis).
	TestStar
	// TestNode matches any node: node().
	TestNode
	// TestText matches text nodes: text().
	TestText
	// TestComment matches comment nodes: comment(). The data model carries
	// no comments, so it never matches; it is parsed for completeness.
	TestComment
	// TestPI matches processing instructions: likewise never matches.
	TestPI
)

// NodeTest is the Test part of a step.
type NodeTest struct {
	Kind TestKind
	// Name is the element/attribute name for TestName.
	Name string
}

func (t NodeTest) String() string {
	switch t.Kind {
	case TestName:
		return t.Name
	case TestStar:
		return "*"
	case TestNode:
		return "node()"
	case TestText:
		return "text()"
	case TestComment:
		return "comment()"
	case TestPI:
		return "processing-instruction()"
	}
	return "?"
}

// NameTest builds a TestName node test.
func NameTest(name string) NodeTest { return NodeTest{Kind: TestName, Name: name} }

// NodeTestNode is the node() test.
var NodeTestNode = NodeTest{Kind: TestNode}

// Step is one location step: Axis::Test[Pred]…[Pred].
type Step struct {
	Axis  Axis
	Test  NodeTest
	Preds []Expr
}

func (s Step) String() string {
	var sb strings.Builder
	sb.WriteString(s.Axis.String())
	sb.WriteString("::")
	sb.WriteString(s.Test.String())
	for _, p := range s.Preds {
		sb.WriteString("[")
		sb.WriteString(p.String())
		sb.WriteString("]")
	}
	return sb.String()
}

// Path is a location path.
type Path struct {
	// Absolute paths start at the document root.
	Absolute bool
	Steps    []Step
}

func (p *Path) String() string {
	var sb strings.Builder
	if p.Absolute {
		sb.WriteString("/")
	}
	for i, s := range p.Steps {
		if i > 0 {
			sb.WriteString("/")
		}
		sb.WriteString(s.String())
	}
	return sb.String()
}

// Expr is an XPath expression.
type Expr interface {
	fmt.Stringer
	exprNode()
}

// Op is a binary operator.
type Op uint8

const (
	OpOr Op = iota
	OpAnd
	OpEq
	OpNeq
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpUnion
)

var opNames = [...]string{
	OpOr: "or", OpAnd: "and", OpEq: "=", OpNeq: "!=", OpLt: "<", OpLe: "<=",
	OpGt: ">", OpGe: ">=", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "div",
	OpMod: "mod", OpUnion: "|",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Binary is a binary operation L op R (including union).
type Binary struct {
	Op   Op
	L, R Expr
}

// Neg is unary minus.
type Neg struct{ E Expr }

// Literal is a string literal.
type Literal struct{ S string }

// Number is a numeric literal.
type Number struct{ F float64 }

// Var is a variable reference $name.
type Var struct{ Name string }

// Call is a function call.
type Call struct {
	Name string
	Args []Expr
}

// PathExpr is a location path used as an expression, optionally applied to
// a filter expression: Filter/Path (Filter may be nil for a bare path,
// Path may be empty for a bare filter with predicates).
type PathExpr struct {
	// Filter is the primary expression the path is applied to, or nil when
	// the path starts from the context node or root.
	Filter Expr
	// FilterPreds are predicates applied to the filter result.
	FilterPreds []Expr
	Path        Path
}

func (Binary) exprNode()   {}
func (Neg) exprNode()      {}
func (Literal) exprNode()  {}
func (Number) exprNode()   {}
func (Var) exprNode()      {}
func (Call) exprNode()     {}
func (PathExpr) exprNode() {}

func (b Binary) String() string {
	if b.Op == OpUnion {
		return fmt.Sprintf("%s | %s", b.L, b.R)
	}
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

func (n Neg) String() string { return "-" + n.E.String() }

func (l Literal) String() string { return strconv.Quote(l.S) }

func (n Number) String() string {
	return strconv.FormatFloat(n.F, 'g', -1, 64)
}

func (v Var) String() string { return "$" + v.Name }

func (c Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	return c.Name + "(" + strings.Join(args, ", ") + ")"
}

func (p PathExpr) String() string {
	var sb strings.Builder
	if p.Filter != nil {
		sb.WriteString("(")
		sb.WriteString(p.Filter.String())
		sb.WriteString(")")
		for _, pr := range p.FilterPreds {
			sb.WriteString("[")
			sb.WriteString(pr.String())
			sb.WriteString("]")
		}
		if len(p.Path.Steps) > 0 {
			sb.WriteString("/")
		}
	}
	sb.WriteString(p.Path.String())
	return sb.String()
}
