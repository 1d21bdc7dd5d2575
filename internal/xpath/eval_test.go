package xpath

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"xmlproj/internal/tree"
)

const bibXML = `<bib>
<book isbn="1" lang="it"><title>Commedia</title><author>Dante</author><year>1313</year></book>
<book isbn="2"><title>Decameron</title><author>Boccaccio</author><year>1353</year></book>
<book isbn="3" lang="it"><title>Canzoniere</title><author>Petrarca</author><author>Dante</author></book>
</bib>`

func bibDoc(t *testing.T) *tree.Document {
	t.Helper()
	d, err := tree.ParseString(bibXML)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// sel evaluates src on doc and returns the matched elements' tags (or text
// data / attribute values).
func sel(t *testing.T, doc *tree.Document, src string) []string {
	t.Helper()
	ev := NewEvaluator(doc)
	ns, err := ev.Select(MustParse(src))
	if err != nil {
		t.Fatalf("Select(%q): %v", src, err)
	}
	var out []string
	for _, r := range ns {
		switch {
		case r.IsAttr():
			out = append(out, "@"+r.Name()+"="+r.StringValue())
		case r.N().Kind() == tree.Text:
			out = append(out, "#"+r.N().Data())
		default:
			out = append(out, r.N().Tag())
		}
	}
	return out
}

func evalVal(t *testing.T, doc *tree.Document, src string) Value {
	t.Helper()
	ev := NewEvaluator(doc)
	v, err := ev.Eval(MustParse(src))
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func joined(xs []string) string { return strings.Join(xs, " ") }

// child returns n's k-th child.
func child(n tree.Node, k int) tree.Node {
	c := n.FirstChild()
	for ; k > 0; k-- {
		c = c.NextSibling()
	}
	return c
}

func TestEvalChildAndDescendant(t *testing.T) {
	doc := bibDoc(t)
	if got := sel(t, doc, "child::book"); len(got) != 3 {
		t.Fatalf("child::book = %v", got)
	}
	if got := sel(t, doc, "descendant::author"); len(got) != 4 {
		t.Fatalf("descendant::author = %v", got)
	}
	if got := sel(t, doc, "book/title"); len(got) != 3 {
		t.Fatalf("book/title = %v", got)
	}
	if got := sel(t, doc, "descendant::author/child::text()"); joined(got) != "#Dante #Boccaccio #Petrarca #Dante" {
		t.Fatalf("author texts = %v", got)
	}
}

func TestEvalAbsolutePaths(t *testing.T) {
	doc := bibDoc(t)
	if got := sel(t, doc, "/bib/book"); len(got) != 3 {
		t.Fatalf("/bib/book = %v", got)
	}
	if got := sel(t, doc, "/nosuch"); len(got) != 0 {
		t.Fatalf("/nosuch = %v", got)
	}
	if got := sel(t, doc, "//author"); len(got) != 4 {
		t.Fatalf("//author = %v", got)
	}
	if got := sel(t, doc, "//book/title"); len(got) != 3 {
		t.Fatalf("//book/title = %v", got)
	}
	// Absolute path from a nested context still starts at the root.
	ev := NewEvaluator(doc)
	title := child(child(doc.Root(), 0), 0)
	v, err := ev.EvalWith(MustParse("/bib/book"), ElemRef(title))
	if err != nil || len(v.(NodeSet)) != 3 {
		t.Fatalf("absolute from nested context: %v, %v", v, err)
	}
}

func TestEvalUpwardAxes(t *testing.T) {
	doc := bibDoc(t)
	if got := sel(t, doc, "book/title/parent::node()"); joined(got) != "book book book" {
		t.Fatalf("parent = %v", got)
	}
	if got := sel(t, doc, "book/title/ancestor::bib"); joined(got) != "bib" {
		t.Fatalf("ancestor::bib = %v", got)
	}
	if got := sel(t, doc, "book/author/ancestor-or-self::node()"); len(got) != 1+3+4 {
		t.Fatalf("ancestor-or-self count = %d (%v)", len(got), got)
	}
	if got := sel(t, doc, "book/.."); joined(got) != "bib" {
		t.Fatalf(".. = %v", got)
	}
}

func TestEvalSiblingAxes(t *testing.T) {
	doc := bibDoc(t)
	if got := sel(t, doc, "book[1]/following-sibling::book"); len(got) != 2 {
		t.Fatalf("following-sibling = %v", got)
	}
	if got := sel(t, doc, "book[3]/preceding-sibling::book"); len(got) != 2 {
		t.Fatalf("preceding-sibling = %v", got)
	}
	// Proximity position on a reverse axis: the nearest preceding sibling
	// is position 1.
	if got := sel(t, doc, "book[3]/preceding-sibling::book[1]/title/child::text()"); joined(got) != "#Decameron" {
		t.Fatalf("preceding-sibling[1] = %v", got)
	}
	if got := sel(t, doc, "book[1]/title/following-sibling::node()"); len(got) != 2 { // author, year
		t.Fatalf("following-sibling::node() = %v", got)
	}
}

func TestEvalFollowingPreceding(t *testing.T) {
	doc := bibDoc(t)
	// following from first title: everything after </title> in doc order.
	got := sel(t, doc, "book[1]/title/following::author")
	if len(got) != 4 {
		t.Fatalf("following::author = %v", got)
	}
	got = sel(t, doc, "book[3]/preceding::title")
	if len(got) != 2 {
		t.Fatalf("preceding::title = %v", got)
	}
	// preceding excludes ancestors.
	got = sel(t, doc, "book[2]/title/preceding::bib")
	if len(got) != 0 {
		t.Fatalf("preceding must exclude ancestors: %v", got)
	}
}

func TestEvalAttributes(t *testing.T) {
	doc := bibDoc(t)
	if got := sel(t, doc, "book/@isbn"); joined(got) != "@isbn=1 @isbn=2 @isbn=3" {
		t.Fatalf("@isbn = %v", got)
	}
	if got := sel(t, doc, "book/attribute::*"); len(got) != 5 {
		t.Fatalf("attribute::* = %v", got)
	}
	if got := sel(t, doc, `book[@lang = "it"]`); len(got) != 2 {
		t.Fatalf("book[@lang=it] = %v", got)
	}
	if got := sel(t, doc, `book[@lang]/title`); len(got) != 2 {
		t.Fatalf("book[@lang]/title = %v", got)
	}
	// Attribute node axes.
	if got := sel(t, doc, "book/@isbn/parent::node()"); joined(got) != "book book book" {
		t.Fatalf("@isbn/parent = %v", got)
	}
	if got := sel(t, doc, "book/@isbn/ancestor::bib"); joined(got) != "bib" {
		t.Fatalf("@isbn/ancestor::bib = %v", got)
	}
}

func TestEvalPositionalPredicates(t *testing.T) {
	doc := bibDoc(t)
	if got := sel(t, doc, "book[1]/@isbn"); joined(got) != "@isbn=1" {
		t.Fatalf("book[1] = %v", got)
	}
	if got := sel(t, doc, "book[last()]/@isbn"); joined(got) != "@isbn=3" {
		t.Fatalf("book[last()] = %v", got)
	}
	if got := sel(t, doc, "book[position() > 1]"); len(got) != 2 {
		t.Fatalf("book[position()>1] = %v", got)
	}
	if got := sel(t, doc, "book[2][1]"); len(got) != 1 {
		t.Fatalf("book[2][1] = %v", got)
	}
	if got := sel(t, doc, "book[1][2]"); len(got) != 0 {
		t.Fatalf("book[1][2] = %v", got)
	}
}

func TestEvalValuePredicates(t *testing.T) {
	doc := bibDoc(t)
	if got := sel(t, doc, `book[author = "Dante"]/@isbn`); joined(got) != "@isbn=1 @isbn=3" {
		t.Fatalf("author=Dante = %v", got)
	}
	if got := sel(t, doc, `book[year > 1330]/title/child::text()`); joined(got) != "#Decameron" {
		t.Fatalf("year>1330 = %v", got)
	}
	if got := sel(t, doc, `book[not(year)]`); len(got) != 1 {
		t.Fatalf("not(year) = %v", got)
	}
	if got := sel(t, doc, `book[count(author) = 2]/@isbn`); joined(got) != "@isbn=3" {
		t.Fatalf("count(author)=2 = %v", got)
	}
	if got := sel(t, doc, `book[contains(title, "camer")]/@isbn`); joined(got) != "@isbn=2" {
		t.Fatalf("contains = %v", got)
	}
}

// The paper's running example (§3).
func TestEvalPaperQueryQ(t *testing.T) {
	doc := bibDoc(t)
	q := `/descendant::author/child::text()[self::node() = "Dante"]/ancestor::book/child::title`
	got := sel(t, doc, q)
	if len(got) != 2 {
		t.Fatalf("paper query = %v, want 2 titles", got)
	}
	ev := NewEvaluator(doc)
	ns, err := ev.Select(MustParse(q))
	if err != nil {
		t.Fatal(err)
	}
	if ns[0].StringValue() != "Commedia" || ns[1].StringValue() != "Canzoniere" {
		t.Fatalf("titles = %q, %q", ns[0].StringValue(), ns[1].StringValue())
	}
}

func TestEvalDocumentOrderAndDedup(t *testing.T) {
	doc := bibDoc(t)
	// Two routes to the same titles must be deduplicated.
	got := sel(t, doc, "book/title | //title")
	if len(got) != 3 {
		t.Fatalf("union dedup = %v", got)
	}
	// ancestor-or-self from all authors reaches bib once per result set.
	got = sel(t, doc, "descendant::node()/ancestor-or-self::bib")
	if len(got) != 1 {
		t.Fatalf("dedup over ancestors = %v", got)
	}
}

func TestEvalArithmeticAndComparison(t *testing.T) {
	doc := bibDoc(t)
	if v := evalVal(t, doc, "1 + 2 * 3"); v.(float64) != 7 {
		t.Fatalf("1+2*3 = %v", v)
	}
	if v := evalVal(t, doc, "(1 + 2) * 3"); v.(float64) != 9 {
		t.Fatalf("(1+2)*3 = %v", v)
	}
	if v := evalVal(t, doc, "10 div 4"); v.(float64) != 2.5 {
		t.Fatalf("div = %v", v)
	}
	if v := evalVal(t, doc, "10 mod 3"); v.(float64) != 1 {
		t.Fatalf("mod = %v", v)
	}
	if v := evalVal(t, doc, "-book[1]/year"); v.(float64) != -1313 {
		t.Fatalf("neg = %v", v)
	}
	if v := evalVal(t, doc, "count(book) = 3"); v != true {
		t.Fatalf("count=3: %v", v)
	}
	if v := evalVal(t, doc, `"abc" = "abc"`); v != true {
		t.Fatal("string eq")
	}
	if v := evalVal(t, doc, "1 < 2 and 2 < 1"); v != false {
		t.Fatal("and")
	}
	if v := evalVal(t, doc, "1 > 2 or 2 > 1"); v != true {
		t.Fatal("or")
	}
}

func TestEvalNodeSetComparisons(t *testing.T) {
	doc := bibDoc(t)
	// Existential semantics: some author equals "Dante".
	if v := evalVal(t, doc, `book/author = "Dante"`); v != true {
		t.Fatal("existential =")
	}
	// != is also existential: some author differs from Dante.
	if v := evalVal(t, doc, `book/author != "Dante"`); v != true {
		t.Fatal("existential !=")
	}
	if v := evalVal(t, doc, `book/year > 1340`); v != true {
		t.Fatal("nodeset > number")
	}
	if v := evalVal(t, doc, `book/year < 1000`); v != false {
		t.Fatal("nodeset < number false")
	}
	// Node-set vs node-set.
	if v := evalVal(t, doc, "book[1]/author = book[3]/author"); v != true {
		t.Fatal("Dante appears in both")
	}
	if v := evalVal(t, doc, "book[1]/title = book[2]/title"); v != false {
		t.Fatal("distinct titles reported equal")
	}
	// Node-set vs boolean compares via boolean().
	if v := evalVal(t, doc, "book = true()"); v != true {
		t.Fatal("nodeset vs bool")
	}
	if v := evalVal(t, doc, "nosuch = false()"); v != true {
		t.Fatal("empty nodeset vs false")
	}
}

func TestEvalStringFunctions(t *testing.T) {
	doc := bibDoc(t)
	cases := []struct {
		src  string
		want Value
	}{
		{`string(book[1]/title)`, "Commedia"},
		{`concat("a", "b", "c")`, "abc"},
		{`starts-with("hello", "he")`, true},
		{`contains("hello", "ell")`, true},
		{`substring("12345", 2, 3)`, "234"},
		{`substring("12345", 2)`, "2345"},
		{`substring-before("1999/04/01", "/")`, "1999"},
		{`substring-after("1999/04/01", "/")`, "04/01"},
		{`string-length("abc")`, 3.0},
		{`normalize-space("  a   b ")`, "a b"},
		{`translate("bar", "abc", "ABC")`, "BAr"},
		{`translate("-bar-", "-", "")`, "bar"},
		{`string(12)`, "12"},
		{`string(1.5)`, "1.5"},
		{`string(true())`, "true"},
	}
	for _, c := range cases {
		if got := evalVal(t, doc, c.src); got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalNumericFunctions(t *testing.T) {
	doc := bibDoc(t)
	cases := []struct {
		src  string
		want float64
	}{
		{"floor(1.7)", 1},
		{"ceiling(1.2)", 2},
		{"round(1.5)", 2},
		{"sum(book/year)", 2666},
		{"count(//author)", 4},
		{"number('12.5')", 12.5},
		{"avg(book/year)", 1333},
		{"min(book/year)", 1313},
		{"max(book/year)", 1353},
	}
	for _, c := range cases {
		if got := evalVal(t, doc, c.src).(float64); got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
	if got := evalVal(t, doc, "number('zzz')").(float64); !math.IsNaN(got) {
		t.Errorf("number('zzz') = %v, want NaN", got)
	}
}

func TestEvalBooleanFunctions(t *testing.T) {
	doc := bibDoc(t)
	cases := []struct {
		src  string
		want bool
	}{
		{"not(1)", false},
		{"not(0)", true},
		{"boolean(book)", true},
		{"boolean(nosuch)", false},
		{`boolean("")`, false},
		{"true()", true},
		{"false()", false},
		{"empty(nosuch)", true},
		{"empty(book)", false},
		{"exists(book)", true},
	}
	for _, c := range cases {
		if got := evalVal(t, doc, c.src); got != c.want {
			t.Errorf("%s = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestEvalVariables(t *testing.T) {
	doc := bibDoc(t)
	ev := NewEvaluator(doc)
	ev.Vars = map[string]Value{"n": 2.0}
	v, err := ev.Eval(MustParse("book[$n]/@isbn"))
	if err != nil {
		t.Fatal(err)
	}
	if ns := v.(NodeSet); len(ns) != 1 || ns[0].StringValue() != "2" {
		t.Fatalf("book[$n] = %v", ns)
	}
	// Node-set variable with a continuation path.
	books, _ := ev.Select(MustParse("book"))
	ev.Vars["b"] = books
	v, err = ev.Eval(MustParse("$b/title"))
	if err != nil {
		t.Fatal(err)
	}
	if len(v.(NodeSet)) != 3 {
		t.Fatalf("$b/title = %v", v)
	}
	if _, err := ev.Eval(MustParse("$undefined")); err == nil {
		t.Fatal("unbound variable must error")
	}
}

func TestEvalTextTest(t *testing.T) {
	doc := bibDoc(t)
	if got := sel(t, doc, "book/title/text()"); len(got) != 3 {
		t.Fatalf("title/text() = %v", got)
	}
	if got := sel(t, doc, "book/node()"); len(got) != 9 { // 3+3+3 element children
		t.Fatalf("book/node() = %d: %v", len(got), got)
	}
}

func TestEvalStarTest(t *testing.T) {
	doc := bibDoc(t)
	if got := sel(t, doc, "book[1]/*"); joined(got) != "title author year" {
		t.Fatalf("book/* = %v", got)
	}
}

// TestNodeRefSize: a node reference is a document, a record index and an
// attribute index, 16 bytes, which every node-set and step buffer holds
// by value.
func TestNodeRefSize(t *testing.T) {
	if s := reflect.TypeOf(NodeRef{}).Size(); s != 16 {
		t.Fatalf("NodeRef is %d bytes, want 16", s)
	}
}

func TestEvalVisitedCounter(t *testing.T) {
	doc := bibDoc(t)
	ev := NewEvaluator(doc)
	if _, err := ev.Select(MustParse("//author")); err != nil {
		t.Fatal(err)
	}
	if ev.Visited == 0 {
		t.Fatal("Visited not incremented")
	}
}

func TestEvalErrors(t *testing.T) {
	doc := bibDoc(t)
	ev := NewEvaluator(doc)
	for _, src := range []string{
		"unknownfn()", "count()", "count(1, 2)", `count("s")`, "1 | 2",
	} {
		if _, err := ev.Eval(MustParse(src)); err == nil {
			t.Errorf("Eval(%q) succeeded, want error", src)
		}
	}
}
