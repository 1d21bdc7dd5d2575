package xpathl

import (
	"slices"
	"testing"

	"xmlproj/internal/testkit"
	"xmlproj/internal/xpath"
)

func step(a xpath.Axis, name string) SStep {
	if name == "" {
		return SStep{Axis: a, Test: xpath.NodeTestNode}
	}
	return SStep{Axis: a, Test: xpath.NameTest(name)}
}

func TestPathClone(t *testing.T) {
	p := &Path{Absolute: true, Steps: []Step{{SStep: step(xpath.Child, "a")}}}
	c := p.Clone()
	c.Steps[0].SStep = step(xpath.Child, "b")
	if p.Steps[0].Test.Name != "a" {
		t.Fatal("Clone aliases steps")
	}
	if !c.Absolute {
		t.Fatal("Clone lost Absolute")
	}
}

func TestPathAppendStep(t *testing.T) {
	p := &Path{Steps: []Step{{SStep: step(xpath.Child, "a")}}}
	q := p.AppendStep(step(xpath.DescendantOrSelf, ""))
	if q.String() != "child::a/descendant-or-self::node()" {
		t.Fatalf("AppendStep = %s", q)
	}
	// Appending self::node() is the identity.
	r := p.AppendStep(step(xpath.Self, ""))
	if r.String() != "child::a" {
		t.Fatalf("self append = %s", r)
	}
	if len(p.Steps) != 1 {
		t.Fatal("AppendStep mutated the receiver")
	}
}

func TestConcat(t *testing.T) {
	prefix := &Path{Absolute: true, Steps: []Step{{SStep: step(xpath.Self, "site")}}}
	rel := &Path{Steps: []Step{
		{SStep: step(xpath.Self, "")}, // dropped: identity step
		{SStep: step(xpath.Child, "people")},
	}}
	got := Concat(prefix, rel)
	if got.String() != "/self::site/child::people" {
		t.Fatalf("Concat = %s", got)
	}
	// An absolute right side wins.
	abs := &Path{Absolute: true, Steps: []Step{{SStep: step(xpath.Child, "x")}}}
	if got := Concat(prefix, abs); got.String() != "/child::x" {
		t.Fatalf("Concat abs = %s", got)
	}
	// A conditioned self step is NOT dropped (it filters).
	condRel := &Path{Steps: []Step{{
		SStep: step(xpath.Self, ""),
		Cond:  &Cond{Disjuncts: []SimplePath{SelfNode()}},
	}}}
	if got := Concat(prefix, condRel); len(got.Steps) != 2 {
		t.Fatalf("conditioned self dropped: %s", got)
	}
}

func TestMakeAbsolute(t *testing.T) {
	cases := map[string]string{
		"child::a/child::b":      "/self::a/child::b",
		"descendant::a":          "/descendant-or-self::a",
		"self::a":                "/self::a",
		"parent::node()/self::a": "/parent::node()/self::a", // degenerate, unchanged shape
	}
	for src, want := range cases {
		ps, err := FromQuery(testkit.XPath(src))
		if err != nil {
			t.Fatal(err)
		}
		if got := MakeAbsolute(ps[0]).String(); got != want {
			t.Errorf("MakeAbsolute(%s) = %s, want %s", src, got, want)
		}
	}
	// Already-absolute paths are untouched.
	ps, _ := FromQuery(testkit.XPath("/a/b"))
	if got := MakeAbsolute(ps[0]).String(); got != ps[0].String() {
		t.Fatalf("MakeAbsolute changed an absolute path: %s", got)
	}
}

func TestApproxNegationAndArithmetic(t *testing.T) {
	// Unary minus and arithmetic are value contexts: paths get dos, plus
	// the self::node() safety disjunct for the non-structural part.
	ps := MustFromQuery(testkit.XPath(`x[-a = 1]`))
	cond := ps[0].Steps[0].Cond
	var hasDos bool
	for _, d := range cond.Disjuncts {
		if d.String() == "child::a/descendant-or-self::node()" {
			hasDos = true
		}
	}
	if !hasDos {
		t.Fatalf("negated operand lost its dos: %s", cond)
	}
	ps = MustFromQuery(testkit.XPath(`x[a + b > 2]`))
	cond = ps[0].Steps[0].Cond
	var hasA, hasB bool
	for _, d := range cond.Disjuncts {
		switch d.String() {
		case "child::a/descendant-or-self::node()":
			hasA = true
		case "child::b/descendant-or-self::node()":
			hasB = true
		}
	}
	if !hasA || !hasB || !cond.HasSelfNode() {
		t.Fatalf("arithmetic condition wrong: %s", cond)
	}
}

func TestApproxUnionInPredicate(t *testing.T) {
	ps := MustFromQuery(testkit.XPath(`x[a | b]`))
	cond := ps[0].Steps[0].Cond
	if len(cond.Disjuncts) != 2 {
		t.Fatalf("union predicate = %s", cond)
	}
}

func TestCondAddDedups(t *testing.T) {
	c := &Cond{}
	c.add(SelfNode())
	c.add(SelfNode())
	if len(c.Disjuncts) != 1 {
		t.Fatalf("duplicate disjunct kept: %s", c)
	}
}

// TestFuncArgAxisTable holds §3.3's extraction to the function
// library, entry by entry: F(f, i) is self::node() exactly when the entry
// reads only its arguments' nodes, and a predicate calling f keeps the
// self::node() disjunct exactly when the entry is not structural. The two
// name sets are pinned as well: moving one changes projectors
// (testdata/projectors.golden).
func TestFuncArgAxisTable(t *testing.T) {
	var nodes, structural []string
	for _, name := range append(testkit.Functions, "anything-unknown") {
		f := xpath.Lookup(name)
		if f.Nodes {
			nodes = append(nodes, name)
		}
		if f.Structural {
			structural = append(structural, name)
		}
		for i := range 3 {
			if got := FuncArgAxis(name, i); (got.Axis == xpath.Self) != f.Nodes || got.Test != xpath.NodeTestNode {
				t.Errorf("F(%s, %d) = %s, entry reads nodes only: %v", name, i, got, f.Nodes)
			}
		}
		call := xpath.Call{Name: name, Args: []xpath.Expr{testkit.XPath("a")}}
		if _, kept := Extract(call, nil, false); kept == f.Structural {
			t.Errorf("[%s(a)] keeps self::node(): %v, entry structural: %v", name, kept, f.Structural)
		}
	}
	wantNodes := []string{"boolean", "count", "empty", "exactly-one", "exists", "last", "local-name", "name", "not", "one-or-more", "position", "zero-or-one"}
	if !slices.Equal(nodes, wantNodes) {
		t.Errorf("functions reading nodes only: %v, want %v", nodes, wantNodes)
	}
	if want := []string{"boolean", "exists"}; !slices.Equal(structural, want) {
		t.Errorf("structural functions: %v, want %v", structural, want)
	}
}

// Regression: a truthy constant disjunct makes the whole condition
// non-restricting — [2 or P] is always true, so self::node() must be
// present. Found by the random-DTD soundness fuzzer
// (prune.TestFuzzSoundnessNonRecursiveDTDs, dtd seed 7).
func TestApproxTruthyConstantDisjunct(t *testing.T) {
	for _, src := range []string{
		`x[2 or a/b]`,
		`x[1 or following-sibling::y/node()]`,
		`x["s" or a]`,
	} {
		ps := MustFromQuery(testkit.XPath(src))
		cond := ps[0].Steps[0].Cond
		if !cond.HasSelfNode() {
			t.Errorf("%s: truthy constant disjunct must neutralise restriction: %s", src, cond)
		}
	}
	// A falsy constant disjunct can never satisfy the predicate: the other
	// disjunct may still restrict.
	ps := MustFromQuery(testkit.XPath(`x[0 or a]`))
	if cond := ps[0].Steps[0].Cond; cond.HasSelfNode() {
		t.Errorf("falsy constant should not block restriction: %s", cond)
	}
	// …and value comparisons against constants still restrict (the §3.3
	// Dante example shape).
	ps = MustFromQuery(testkit.XPath(`x[a = "v" or b]`))
	if cond := ps[0].Steps[0].Cond; cond.HasSelfNode() {
		t.Errorf("comparison operand must not produce self::node(): %s", cond)
	}
}

func TestSimplePathPrefixEmpty(t *testing.T) {
	// Prefixing self::node() with nothing yields self::node().
	sp := SelfNode().Prefix(nil)
	if !sp.IsSelfNode() {
		t.Fatalf("Prefix(nil) = %s", sp)
	}
}

func disjuncts(c *Cond) []string {
	out := make([]string, len(c.Disjuncts))
	for i, d := range c.Disjuncts {
		out[i] = d.String()
	}
	slices.Sort(out)
	return out
}

// A call inside a call reads its own arguments with their F(f, i) steps:
// its self::node() does not become the context's whole subtree (QM14's
// contains(string(exactly-one(…)), …)).
func TestExtractNestedCall(t *testing.T) {
	cond := MustFromQuery(testkit.XPath(`x[contains(string(exactly-one(d)), "g")]`))[0].Steps[0].Cond
	want := []string{"child::d/descendant-or-self::node()", "self::node()"}
	if got := disjuncts(cond); !slices.Equal(got, want) {
		t.Errorf("cond = %v, want %v", got, want)
	}
}

// A call of no argument whose entry reads the context is f(self::node()).
func TestExtractContextCall(t *testing.T) {
	for src, want := range map[string][]string{
		`x[string()]`:            {"self::node()", "self::node()/descendant-or-self::node()"},
		`x[string-length() > 3]`: {"self::node()", "self::node()/descendant-or-self::node()"},
		`x[normalize-space()]`:   {"self::node()", "self::node()/descendant-or-self::node()"},
		`x[name() = "a"]`:        {"self::node()"},
		`x[last()]`:              {"self::node()"},
	} {
		if got := disjuncts(MustFromQuery(testkit.XPath(src))[0].Steps[0].Cond); !slices.Equal(got, want) {
			t.Errorf("%s: cond = %v, want %v", src, got, want)
		}
	}
}

// A path from a variable resolves through the scope, inside predicates
// too, and never restricts.
func TestExtractScope(t *testing.T) {
	g := Scope{}.Extend("p", true, MustFromQuery(testkit.XPath("/s/p")))
	ps, free := Extract(testkit.XPath(`a[b = $p/@id]`), g, false)
	if free || len(ps) != 1 {
		t.Fatalf("a[b = $p/@id]: %d paths, free %v", len(ps), free)
	}
	want := []string{"/self::s/child::p/attribute::id/descendant-or-self::node()", "child::b/descendant-or-self::node()", "self::node()"}
	if got := disjuncts(ps[0].Steps[0].Cond); !slices.Equal(got, want) {
		t.Errorf("cond = %v, want %v", got, want)
	}
	for src, want := range map[string]string{
		"$p":   "/self::s/child::p/descendant-or-self::node()",
		"$p/c": "/self::s/child::p/child::c/descendant-or-self::node()",
		"$q/c": "/self::c/descendant-or-self::node()", // free: the document node
	} {
		ps, free := Extract(testkit.XPath(src), g, true)
		if !free || len(ps) != 1 || ps[0].String() != want {
			t.Errorf("%s: %v, free %v, want %s", src, ps, free, want)
		}
	}
}

// MustFromQuery is FromQuery for known-good queries.
func MustFromQuery(e xpath.Expr) []*Path {
	ps, err := FromQuery(e)
	if err != nil {
		panic(err)
	}
	return ps
}

// IsSelfNode reports whether the path is exactly self::node().
func (p SimplePath) IsSelfNode() bool {
	return !p.Absolute && len(p.Steps) == 1 &&
		p.Steps[0].Axis == xpath.Self && p.Steps[0].Test.Kind == xpath.TestNode
}

// HasSelfNode reports whether one of the disjuncts is the always-true
// self::node() (the marker for non-structural sub-conditions, §3.3).
func (c *Cond) HasSelfNode() bool {
	for _, p := range c.Disjuncts {
		if p.IsSelfNode() {
			return true
		}
	}
	return false
}
