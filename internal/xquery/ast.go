// Package xquery implements the FLWR core of XQuery used by the paper
// (§5): parsing, the Fig. 3 path-extraction function E(q, Γ, m), the
// for/if predicate-pushing heuristic, and an evaluator.
//
// Defended by: §5 and Fig. 3; `answer_projected` and `answer_direct` run its Q10 XQuery queries.
package xquery

import (
	"fmt"
	"strings"

	"xmlproj/internal/xpath"
)

// Query is a FLWR-core query:
//
//	q ::= () | <tag>q</tag> | q, q | for x in q return q
//	    | let x := q return q | if q then q else q | Exp
type Query interface {
	fmt.Stringer
	queryNode()
}

// Empty is the empty sequence ().
type Empty struct{}

// Sequence is q1, q2, …, qn.
type Sequence struct{ Items []Query }

// Attr is one attribute of an element constructor; Value may be a literal
// (Expr nil) or a computed expression.
type Attr struct {
	Name    string
	Literal string
	Expr    Query
}

// Element is an element constructor <tag …>q</tag>.
type Element struct {
	Tag   string
	Attrs []Attr
	Body  Query
}

// Text is literal character content inside an element constructor.
type Text struct{ S string }

// For is for $Var in In return Return. Multiple bindings and where
// clauses are desugared by the parser into nested For/If.
type For struct {
	Var    string
	In     Query
	Return Query
}

// Let is let $Var := Val return Return.
type Let struct {
	Var    string
	Val    Query
	Return Query
}

// If is if (Cond) then Then else Else.
type If struct {
	Cond Query
	Then Query
	Else Query
}

// OrderBy wraps a For body: evaluate Return for each binding, ordered by
// the Keys. It is produced by "order by" clauses; extraction treats keys
// as value-consuming expressions.
type OrderBy struct {
	// Keys are evaluated in the for-variable's scope.
	Keys       []xpath.Expr
	Descending bool
	Body       Query
}

// Expr wraps an XPath expression (possibly rooted at a variable) as a
// query.
type Expr struct{ E xpath.Expr }

func (Empty) queryNode()    {}
func (Sequence) queryNode() {}
func (Element) queryNode()  {}
func (Text) queryNode()     {}
func (For) queryNode()      {}
func (Let) queryNode()      {}
func (If) queryNode()       {}
func (OrderBy) queryNode()  {}
func (Expr) queryNode()     {}

func (Empty) String() string { return "()" }

func (s Sequence) String() string {
	parts := make([]string, len(s.Items))
	for i, q := range s.Items {
		parts[i] = q.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func (e Element) String() string {
	var sb strings.Builder
	sb.WriteString("<")
	sb.WriteString(e.Tag)
	for _, a := range e.Attrs {
		sb.WriteString(" ")
		sb.WriteString(a.Name)
		sb.WriteString("=")
		if a.Expr != nil {
			sb.WriteString("{" + a.Expr.String() + "}")
		} else {
			sb.WriteString(`"` + a.Literal + `"`)
		}
	}
	if e.Body == nil {
		sb.WriteString("/>")
		return sb.String()
	}
	sb.WriteString(">{ ")
	sb.WriteString(e.Body.String())
	sb.WriteString(" }</")
	sb.WriteString(e.Tag)
	sb.WriteString(">")
	return sb.String()
}

func (t Text) String() string { return fmt.Sprintf("%q", t.S) }

func (f For) String() string {
	if ob, ok := f.Return.(OrderBy); ok {
		keys := make([]string, len(ob.Keys))
		for i, k := range ob.Keys {
			keys[i] = k.String()
		}
		dir := ""
		if ob.Descending {
			dir = " descending"
		}
		return fmt.Sprintf("for $%s in %s order by %s%s return %s",
			f.Var, f.In, strings.Join(keys, ", "), dir, ob.Body)
	}
	return fmt.Sprintf("for $%s in %s return %s", f.Var, f.In, f.Return)
}

func (l Let) String() string {
	return fmt.Sprintf("let $%s := %s return %s", l.Var, l.Val, l.Return)
}

func (i If) String() string {
	return fmt.Sprintf("if (%s) then %s else %s", i.Cond, i.Then, i.Else)
}

func (o OrderBy) String() string {
	keys := make([]string, len(o.Keys))
	for i, k := range o.Keys {
		keys[i] = k.String()
	}
	dir := ""
	if o.Descending {
		dir = " descending"
	}
	return fmt.Sprintf("order by %s%s %s", strings.Join(keys, ", "), dir, o.Body)
}

func (e Expr) String() string { return e.E.String() }

// exprFreeVars collects the free variables of an expression into out.
func exprFreeVars(e xpath.Expr, out map[string]bool) {
	switch t := e.(type) {
	case xpath.Var:
		out[t.Name] = true
	case xpath.Binary:
		exprFreeVars(t.L, out)
		exprFreeVars(t.R, out)
	case xpath.Neg:
		exprFreeVars(t.E, out)
	case xpath.Call:
		for _, a := range t.Args {
			exprFreeVars(a, out)
		}
	case xpath.PathExpr:
		if t.Filter != nil {
			exprFreeVars(t.Filter, out)
		}
		for _, p := range t.FilterPreds {
			exprFreeVars(p, out)
		}
		for _, st := range t.Path.Steps {
			for _, p := range st.Preds {
				exprFreeVars(p, out)
			}
		}
	}
}
