package xpathl

import (
	"strings"
	"testing"

	"xmlproj/internal/testkit"
	"xmlproj/internal/xpath"
)

// approx parses a full XPath query and returns the single approximated
// XPathℓ path rendered as a string.
func approx(t *testing.T, src string) string {
	t.Helper()
	ps, err := FromQuery(testkit.XPath(src))
	if err != nil {
		t.Fatalf("FromQuery(%q): %v", src, err)
	}
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return strings.Join(parts, " ; ")
}

func TestApproxPlainPaths(t *testing.T) {
	cases := map[string]string{
		"child::a/descendant::b":  "child::a/descendant::b",
		"/a/b":                    "/self::a/child::b",
		"a//b":                    "child::a/descendant-or-self::node()/child::b",
		"parent::node()/child::a": "parent::node()/child::a",
	}
	for src, want := range cases {
		if got := approx(t, src); got != want {
			t.Errorf("approx(%q) = %q, want %q", src, got, want)
		}
	}
}

func TestApproxSiblingAxes(t *testing.T) {
	// §4.3 second pass.
	if got := approx(t, "following-sibling::a"); got != "parent::node()/child::a" {
		t.Errorf("following-sibling::a = %q", got)
	}
	if got := approx(t, "preceding-sibling::a"); got != "parent::node()/child::a" {
		t.Errorf("preceding-sibling::a = %q", got)
	}
}

func TestApproxFollowingPreceding(t *testing.T) {
	// §4.3 both passes.
	want := "ancestor-or-self::node()/parent::node()/child::node()/descendant-or-self::a"
	if got := approx(t, "following::a"); got != want {
		t.Errorf("following::a = %q, want %q", got, want)
	}
	if got := approx(t, "preceding::a"); got != want {
		t.Errorf("preceding::a = %q, want %q", got, want)
	}
}

func TestApproxUnion(t *testing.T) {
	got := approx(t, "a | b/c")
	if got != "child::a ; child::b/child::c" {
		t.Errorf("union = %q", got)
	}
}

func TestApproxStructuralPredicate(t *testing.T) {
	// [child::a] is purely structural: no self::node() safety disjunct.
	got := approx(t, "descendant::node()[a]")
	if got != "descendant::node()[child::a]" {
		t.Errorf("got %q", got)
	}
	got = approx(t, "x[a/b or c]")
	if got != "child::x[child::a/child::b or child::c]" {
		t.Errorf("got %q", got)
	}
}

// The paper's §3.3 example: [position()>1 and parent::node/book/author =
// "Dante" and year>1313] approximates to [self::node or
// parent::node/book/author(/dos) or year(/dos)].
func TestApproxPaperExample(t *testing.T) {
	src := `x[position() > 1 and parent::node()/book/author = "Dante" and year > 1313]`
	ps, err := FromQuery(testkit.XPath(src))
	if err != nil {
		t.Fatal(err)
	}
	cond := ps[0].Steps[0].Cond
	if cond == nil {
		t.Fatal("no condition extracted")
	}
	if !cond.HasSelfNode() {
		t.Fatalf("position() must contribute self::node(): %s", cond)
	}
	var hasAuthor, hasYear bool
	for _, d := range cond.Disjuncts {
		s := d.String()
		if strings.HasPrefix(s, "parent::node()/child::book/child::author") {
			hasAuthor = true
		}
		if strings.HasPrefix(s, "child::year") {
			hasYear = true
		}
	}
	if !hasAuthor || !hasYear {
		t.Fatalf("missing structural disjuncts: %s", cond)
	}
}

// The paper's §3.3 discussion: descendant::node()[child::a] restricts,
// while descendant::node()[not(child::a)] and
// descendant::node()[count(child::a) < 5] must include self::node().
func TestApproxNonStructuralFunctions(t *testing.T) {
	ps := MustFromQuery(testkit.XPath("descendant::node()[not(a)]"))
	cond := ps[0].Steps[0].Cond
	if !cond.HasSelfNode() {
		t.Fatalf("not(): missing self::node(): %s", cond)
	}
	found := false
	for _, d := range cond.Disjuncts {
		if d.String() == "child::a" {
			found = true
		}
	}
	if !found {
		t.Fatalf("not(): argument path not extracted: %s", cond)
	}

	ps = MustFromQuery(testkit.XPath("descendant::node()[count(a) < 5]"))
	cond = ps[0].Steps[0].Cond
	if !cond.HasSelfNode() {
		t.Fatalf("count()<5: missing self::node(): %s", cond)
	}
}

func TestApproxValueComparisonAppendsDOS(t *testing.T) {
	// [a = "x"]: a's string-value is needed, so descendant-or-self::node()
	// is appended (see the package comment on the deliberate
	// strengthening of the paper's elided definition).
	ps := MustFromQuery(testkit.XPath(`b[a = "x"]`))
	cond := ps[0].Steps[0].Cond
	want := "child::a/descendant-or-self::node()"
	found := false
	for _, d := range cond.Disjuncts {
		if d.String() == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("cond %s misses %s", cond, want)
	}
	if cond.HasSelfNode() {
		t.Fatalf("pure value comparison on paths should still restrict: %s", cond)
	}
}

func TestApproxCountKeepsSelfStep(t *testing.T) {
	// F(count, 1) = self::node(): the argument subtree is NOT needed.
	ps := MustFromQuery(testkit.XPath("b[count(a) = 1]"))
	cond := ps[0].Steps[0].Cond
	for _, d := range cond.Disjuncts {
		if strings.Contains(d.String(), "descendant-or-self") {
			t.Fatalf("count() argument got a dos step: %s", cond)
		}
	}
}

func TestApproxStringNeedsSubtree(t *testing.T) {
	// F(string, 1) = descendant-or-self::node().
	ps := MustFromQuery(testkit.XPath(`b[contains(a, "x")]`))
	cond := ps[0].Steps[0].Cond
	found := false
	for _, d := range cond.Disjuncts {
		if d.String() == "child::a/descendant-or-self::node()" {
			found = true
		}
	}
	if !found {
		t.Fatalf("contains() argument lacks dos: %s", cond)
	}
}

func TestApproxPositionalOnly(t *testing.T) {
	for _, src := range []string{"a[3]", "a[position() = last()]", "a[position() > 1]"} {
		ps := MustFromQuery(testkit.XPath(src))
		cond := ps[0].Steps[0].Cond
		if !cond.HasSelfNode() {
			t.Errorf("%s: positional predicate must yield self::node(): %s", src, cond)
		}
	}
}

func TestApproxNestedPredicates(t *testing.T) {
	// [a[b]/c] flattens into a/c plus a/b.
	ps := MustFromQuery(testkit.XPath("x[a[b]/c]"))
	cond := ps[0].Steps[0].Cond
	var got []string
	for _, d := range cond.Disjuncts {
		got = append(got, d.String())
	}
	s := strings.Join(got, " ; ")
	if !strings.Contains(s, "child::a/child::c") || !strings.Contains(s, "child::a/child::b") {
		t.Fatalf("nested flattening wrong: %s", s)
	}
}

func TestApproxMultiplePredicatesMerge(t *testing.T) {
	ps := MustFromQuery(testkit.XPath("x[a][b]"))
	cond := ps[0].Steps[0].Cond
	if len(cond.Disjuncts) != 2 {
		t.Fatalf("two predicates should merge into one cond: %s", cond)
	}
}

func TestApproxPredicateWithSiblingAxis(t *testing.T) {
	// Axis rewriting applies inside predicates too.
	ps := MustFromQuery(testkit.XPath("x[following-sibling::a]"))
	cond := ps[0].Steps[0].Cond
	if cond.Disjuncts[0].String() != "parent::node()/child::a" {
		t.Fatalf("sibling axis in predicate: %s", cond)
	}
}

func TestApproxAbsolutePredicatePath(t *testing.T) {
	ps := MustFromQuery(testkit.XPath("x[/r/a]"))
	cond := ps[0].Steps[0].Cond
	found := false
	for _, d := range cond.Disjuncts {
		if d.Absolute && d.String() == "/self::r/child::a" {
			found = true
		}
	}
	if !found {
		t.Fatalf("absolute predicate path lost: %s", cond)
	}
}

func TestApproxVariablePredicate(t *testing.T) {
	ps := MustFromQuery(testkit.XPath("x[$v]"))
	if !ps[0].Steps[0].Cond.HasSelfNode() {
		t.Fatal("variable predicate must be conservative")
	}
}

func TestFromQueryErrors(t *testing.T) {
	for _, src := range []string{"1 + 2", `"s"`, "count(a)", "$x/a", "(a)[1]"} {
		if _, err := FromQuery(testkit.XPath(src)); err == nil {
			t.Errorf("FromQuery(%q) succeeded, want error", src)
		}
	}
}

func TestToXPathRoundTrip(t *testing.T) {
	// The approximation as String renders it (Query.DataNeeds prints it)
	// must re-parse as valid XPath.
	for _, src := range []string{
		"descendant::node()[a or not(b)]",
		"/site//item[name]/description",
		"x[following::k]",
		"a[b = 3]/c",
	} {
		ps := MustFromQuery(testkit.XPath(src))
		for _, p := range ps {
			rendered := p.String()
			if _, err := xpath.Parse(rendered); err != nil {
				t.Errorf("approx(%q) = %q does not re-parse: %v", src, rendered, err)
			}
		}
	}
}

func TestSimplePathHelpers(t *testing.T) {
	if !SelfNode().IsSelfNode() {
		t.Fatal("SelfNode not self-node")
	}
	p := SimplePath{Steps: []SStep{{Axis: xpath.Child, Test: xpath.NameTest("a")}}}
	if p.IsSelfNode() {
		t.Fatal("child::a is not self-node")
	}
	// Prefixing onto an absolute path is the identity.
	abs := SimplePath{Absolute: true, Steps: p.Steps}
	if got := abs.Prefix([]SStep{{Axis: xpath.Child, Test: xpath.NameTest("r")}}); !got.Absolute || len(got.Steps) != 1 {
		t.Fatalf("prefix abs = %s", got)
	}
	// Prefix merges and drops redundant self steps.
	sp := SelfNode().Prefix([]SStep{{Axis: xpath.Child, Test: xpath.NameTest("r")}})
	if sp.String() != "child::r" {
		t.Fatalf("prefix self = %s", sp)
	}
}
