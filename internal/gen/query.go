package gen

import (
	"math/rand"

	"xmlproj/internal/dtd"
	"xmlproj/internal/xpath"
)

// QueryOptions bounds random query generation.
type QueryOptions struct {
	// MaxSteps bounds the number of location steps. Default 4.
	MaxSteps int
	// MaxPreds bounds predicates per query. Default 2.
	MaxPreds int
	// AllAxes enables sibling/preceding/following axes in addition to the
	// XPathℓ ones.
	AllAxes bool
}

func (o QueryOptions) withDefaults() QueryOptions {
	if o.MaxSteps <= 0 {
		o.MaxSteps = 4
	}
	if o.MaxPreds < 0 {
		o.MaxPreds = 0
	}
	if o.MaxPreds == 0 {
		o.MaxPreds = 2
	}
	return o
}

// QueryGen draws random XPath queries whose name tests come from a DTD,
// so that a useful fraction of them select something.
type QueryGen struct {
	rng  *rand.Rand
	tags []string
	opts QueryOptions
}

// NewQueryGen returns a deterministic query generator.
func NewQueryGen(d *dtd.DTD, seed int64, opts QueryOptions) *QueryGen {
	var tags []string
	s := d.Symbols()
	for e := range int32(s.Len()) { // the elements, in declaration order
		tags = append(tags, s.Info(e).Tag)
	}
	return &QueryGen{rng: rand.New(rand.NewSource(seed)), tags: tags, opts: opts.withDefaults()}
}

var xplAxes = []xpath.Axis{
	xpath.Child, xpath.Child, xpath.Child, // bias towards child
	xpath.Descendant, xpath.DescendantOrSelf,
	xpath.Self, xpath.Parent, xpath.Ancestor, xpath.AncestorOrSelf,
}

var extraAxes = []xpath.Axis{
	xpath.FollowingSibling, xpath.PrecedingSibling, xpath.Following, xpath.Preceding,
}

// Query draws one random query.
func (q *QueryGen) Query() xpath.Expr {
	n := 1 + q.rng.Intn(q.opts.MaxSteps)
	path := xpath.Path{Absolute: q.rng.Intn(2) == 0}
	preds := q.rng.Intn(q.opts.MaxPreds + 1)
	for i := 0; i < n; i++ {
		st := xpath.Step{Axis: q.axis(), Test: q.test()}
		if preds > 0 && q.rng.Intn(n) == 0 {
			st.Preds = append(st.Preds, q.predicate(0))
			preds--
		}
		path.Steps = append(path.Steps, st)
	}
	return xpath.PathExpr{Path: path}
}

func (q *QueryGen) axis() xpath.Axis {
	if q.opts.AllAxes && q.rng.Intn(4) == 0 {
		return extraAxes[q.rng.Intn(len(extraAxes))]
	}
	return xplAxes[q.rng.Intn(len(xplAxes))]
}

func (q *QueryGen) test() xpath.NodeTest {
	switch q.rng.Intn(6) {
	case 0:
		return xpath.NodeTestNode
	case 1:
		return xpath.NodeTest{Kind: xpath.TestText}
	case 2:
		return xpath.NodeTest{Kind: xpath.TestStar}
	default:
		return xpath.NameTest(q.tags[q.rng.Intn(len(q.tags))])
	}
}

// FLWRSource draws a random query in the XQuery FLWR core as source
// text, built from absolute in-paths and variable-rooted body paths.
func (q *QueryGen) FLWRSource() string {
	absPath := func() string {
		steps := 1 + q.rng.Intn(3)
		out := ""
		for i := 0; i < steps; i++ {
			sep := "/"
			if q.rng.Intn(4) == 0 {
				sep = "//"
			}
			out += sep + q.tags[q.rng.Intn(len(q.tags))]
		}
		return out
	}
	relPath := func(v string) string {
		steps := 1 + q.rng.Intn(2)
		out := "$" + v
		for i := 0; i < steps; i++ {
			out += "/" + q.tags[q.rng.Intn(len(q.tags))]
		}
		if q.rng.Intn(3) == 0 {
			out += "/text()"
		}
		return out
	}
	switch q.rng.Intn(7) {
	case 0:
		return "for $x in " + absPath() + " return " + relPath("x")
	case 1:
		return "for $x in " + absPath() + " where " + relPath("x") + " return " + relPath("x")
	case 2:
		return "for $x in " + absPath() + ` where ` + relPath("x") + ` = "alpha" return <out>{ ` + relPath("x") + ` }</out>`
	case 3:
		return "let $s := " + absPath() + " return count($s)"
	case 4:
		return "for $x in " + absPath() + " return (for $y in " + relPath("x") + " return $y)"
	case 5: // a variable inside a predicate
		return "for $x in //" + q.tags[q.rng.Intn(len(q.tags))] + " return /*/" + q.tags[q.rng.Intn(len(q.tags))] + "[. != $x/*]"
	default:
		return "count(for $x in " + absPath() + " where " + relPath("x") + " return $x)"
	}
}

// predicate draws a random predicate expression; depth bounds nesting.
func (q *QueryGen) predicate(depth int) xpath.Expr {
	relPath := func() xpath.Expr {
		steps := 1 + q.rng.Intn(2)
		p := xpath.Path{}
		for i := 0; i < steps; i++ {
			p.Steps = append(p.Steps, xpath.Step{Axis: q.axis(), Test: q.test()})
		}
		return xpath.PathExpr{Path: p}
	}
	switch q.rng.Intn(10) {
	case 0: // existence
		return relPath()
	case 1: // value comparison against a word
		return xpath.Binary{Op: xpath.OpEq, L: relPath(), R: xpath.Literal{S: words[q.rng.Intn(len(words))]}}
	case 2: // numeric comparison
		return xpath.Binary{Op: xpath.OpGt, L: xpath.Call{Name: "count", Args: []xpath.Expr{relPath()}}, R: xpath.Number{F: float64(q.rng.Intn(3))}}
	case 3: // negation
		return xpath.Call{Name: "not", Args: []xpath.Expr{relPath()}}
	case 4: // position
		return xpath.Number{F: float64(1 + q.rng.Intn(3))}
	case 5: // contains
		return xpath.Call{Name: "contains", Args: []xpath.Expr{relPath(), xpath.Literal{S: words[q.rng.Intn(len(words))]}}}
	case 6: // disjunction
		if depth < 1 {
			return xpath.Binary{Op: xpath.OpOr, L: q.predicate(depth + 1), R: q.predicate(depth + 1)}
		}
		return relPath()
	case 8: // a call of no argument reads the context's string-value
		return xpath.Call{Name: "normalize-space"}
	case 9:
		return xpath.Binary{Op: xpath.OpGt, L: xpath.Call{Name: "string-length"}, R: xpath.Number{F: float64(q.rng.Intn(4))}}
	default: // conjunction
		if depth < 1 {
			return xpath.Binary{Op: xpath.OpAnd, L: q.predicate(depth + 1), R: q.predicate(depth + 1)}
		}
		return relPath()
	}
}
