package xquery

import (
	"strings"
	"testing"

	"xmlproj/internal/tree"
)

const siteXML = `<site>
<people>
<person id="p0"><name>Ada</name><watches><watch open_auction="a1"/><watch open_auction="a2"/></watches></person>
<person id="p1"><name>Bob</name></person>
<person id="p2"><name>Cid</name><watches><watch open_auction="a1"/></watches></person>
</people>
<open_auctions>
<open_auction id="a1"><bidder><increase>3</increase></bidder><bidder><increase>12</increase></bidder></open_auction>
<open_auction id="a2"><bidder><increase>5</increase></bidder></open_auction>
</open_auctions>
</site>`

func siteDoc(t *testing.T) *tree.Document {
	t.Helper()
	d, err := tree.ParseString(siteXML)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func run(t *testing.T, doc *tree.Document, src string) string {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	s, err := NewEvaluator(doc).Eval(q)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return Serialize(s)
}

func TestEvalSimpleFor(t *testing.T) {
	doc := siteDoc(t)
	got := run(t, doc, `for $p in /site/people/person return $p/name/text()`)
	if got != "Ada\nBob\nCid" {
		t.Fatalf("got %q", got)
	}
}

func TestEvalWhere(t *testing.T) {
	doc := siteDoc(t)
	got := run(t, doc, `for $p in /site/people/person where $p/watches return $p/name/text()`)
	if got != "Ada\nCid" {
		t.Fatalf("got %q", got)
	}
}

func TestEvalLetAndCount(t *testing.T) {
	doc := siteDoc(t)
	got := run(t, doc, `for $p in /site/people/person let $w := $p/watches/watch return count($w)`)
	if got != "2\n0\n1" {
		t.Fatalf("got %q", got)
	}
}

func TestEvalElementConstruction(t *testing.T) {
	doc := siteDoc(t)
	got := run(t, doc, `for $p in /site/people/person where $p/watches return <watcher name="{$p/name/text()}">{ count($p/watches/watch) }</watcher>`)
	want := `<watcher name="Ada">2</watcher>` + "\n" + `<watcher name="Cid">1</watcher>`
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestEvalConstructorCopiesNodes(t *testing.T) {
	doc := siteDoc(t)
	got := run(t, doc, `<out>{ /site/people/person[1]/name }</out>`)
	if got != "<out><name>Ada</name></out>" {
		t.Fatalf("got %q", got)
	}
	// The original document is untouched.
	if doc.Root.Children[0].Children[0].Children[0].Tag != "name" {
		t.Fatal("original mutated")
	}
}

func TestEvalIf(t *testing.T) {
	doc := siteDoc(t)
	got := run(t, doc, `if (/site/people) then "yes" else "no"`)
	if got != "yes" {
		t.Fatalf("got %q", got)
	}
	got = run(t, doc, `if (/site/nosuch) then "yes" else "no"`)
	if got != "no" {
		t.Fatalf("got %q", got)
	}
}

func TestEvalSequence(t *testing.T) {
	doc := siteDoc(t)
	got := run(t, doc, `count(/site/people/person), count(//watch)`)
	if got != "3\n3" {
		t.Fatalf("got %q", got)
	}
}

func TestEvalJoin(t *testing.T) {
	// XMark Q8 shape: who watches what.
	doc := siteDoc(t)
	got := run(t, doc, `
for $p in /site/people/person
let $w := for $a in /site/open_auctions/open_auction
          where some $x in $p/watches/watch satisfies $x/@open_auction = $a/@id
          return $a
return <w person="{$p/name/text()}">{ count($w) }</w>`)
	want := `<w person="Ada">2</w>` + "\n" + `<w person="Bob">0</w>` + "\n" + `<w person="Cid">1</w>`
	if got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

func TestEvalCountOverFLWR(t *testing.T) {
	doc := siteDoc(t)
	got := run(t, doc, `count(for $p in /site/people/person where $p/watches return $p)`)
	if got != "2" {
		t.Fatalf("got %q", got)
	}
}

func TestEvalDistinctValues(t *testing.T) {
	doc := siteDoc(t)
	got := run(t, doc, `for $c in distinct-values(//watch/@open_auction) return <cat>{ $c }</cat>`)
	if got != "<cat>a1</cat>\n<cat>a2</cat>" {
		t.Fatalf("got %q", got)
	}
}

func TestEvalQuantifiedEvery(t *testing.T) {
	doc := siteDoc(t)
	got := run(t, doc, `if (every $w in //watch satisfies $w/@open_auction) then "all" else "some"`)
	if got != "all" {
		t.Fatalf("got %q", got)
	}
}

func TestEvalOrderBy(t *testing.T) {
	doc := siteDoc(t)
	got := run(t, doc, `for $p in /site/people/person order by $p/name/text() descending return $p/name/text()`)
	if got != "Cid\nBob\nAda" {
		t.Fatalf("got %q", got)
	}
}

func TestEvalPositionalInXPath(t *testing.T) {
	// XMark Q2 shape.
	doc := siteDoc(t)
	got := run(t, doc, `for $b in /site/open_auctions/open_auction return <increase>{ $b/bidder[1]/increase/text() }</increase>`)
	if got != "<increase>3</increase>\n<increase>5</increase>" {
		t.Fatalf("got %q", got)
	}
}

func TestEvalArithmeticWhere(t *testing.T) {
	// XMark Q3 shape.
	doc := siteDoc(t)
	got := run(t, doc, `for $b in /site/open_auctions/open_auction where zero-or-one($b/bidder[1]/increase/text()) * 2 <= $b/bidder[last()]/increase/text() return $b/@id`)
	if got != "a1" {
		t.Fatalf("got %q", got)
	}
}

func TestEvalAggregates(t *testing.T) {
	doc := siteDoc(t)
	cases := map[string]string{
		`sum(//increase)`:                 "20",
		`avg(//increase)`:                 "6.666666666666667",
		`min(//increase)`:                 "3",
		`max(//increase)`:                 "12",
		`string-join(("a","b","c"), "-")`: "a-b-c",
		`empty(//nosuch)`:                 "true",
		`exists(//watch)`:                 "true",
	}
	for src, want := range cases {
		if got := run(t, doc, src); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestEvalTextContent(t *testing.T) {
	doc := siteDoc(t)
	got := run(t, doc, `<p>watchers: { count(//watch) } total</p>`)
	if got != "<p>watchers: 3 total</p>" {
		t.Fatalf("got %q", got)
	}
}

func TestEvalNestedConstructors(t *testing.T) {
	doc := siteDoc(t)
	got := run(t, doc, `<out><n>{ count(//person) }</n><w>{ count(//watch) }</w></out>`)
	if got != "<out><n>3</n><w>3</w></out>" {
		t.Fatalf("got %q", got)
	}
}

func TestEvalVariableShadowing(t *testing.T) {
	doc := siteDoc(t)
	got := run(t, doc, `for $x in /site/people/person[1] return (for $x in $x/watches/watch return $x/@open_auction)`)
	if got != "a1\na2" {
		t.Fatalf("got %q", got)
	}
}

func TestEvalErrors(t *testing.T) {
	doc := siteDoc(t)
	for _, src := range []string{
		`$unbound`, `unknownagg(//a, //b, //c)`,
	} {
		q, err := Parse(src)
		if err != nil {
			continue // parse error is fine too
		}
		if _, err := NewEvaluator(doc).Eval(q); err == nil {
			t.Errorf("Eval(%q) succeeded, want error", src)
		}
	}
}

func TestSerializeAtomics(t *testing.T) {
	doc := siteDoc(t)
	if got := run(t, doc, `"x", 3, true()`); got != "x\n3\ntrue" {
		t.Fatalf("got %q", got)
	}
}

func TestEvalWhitespaceQuery(t *testing.T) {
	doc := siteDoc(t)
	src := strings.ReplaceAll(`for $p in /site/people/person
	where $p/watches
	return $p/@id`, "\t", "  ")
	if got := run(t, doc, src); got != "p0\np2" {
		t.Fatalf("got %q", got)
	}
}

// TestEvalConstructedDocumentOrder: a constructed tree is numbered in
// document order from where the document's own IDs end, so a path over it
// answers in that order. Its nodes used to share ID 0, and the b below c
// came out between the other two.
func TestEvalConstructedDocumentOrder(t *testing.T) {
	doc := siteDoc(t)
	const x = `let $x := <r><a><b>1</b></a><b>2</b><c><b>3</b></c></r> return `
	for _, c := range []struct{ body, want string }{
		{`$x//b`, "<b>1</b>\n<b>2</b>\n<b>3</b>"},
		{`$x//b/text()`, "1\n2\n3"},
		{`$x/descendant::b[2]`, "<b>2</b>"},
		{`count($x/descendant::node())`, "8"},
		{`(let $y := <o>{ $x//b }</o> return $y//b/text())`, "1\n2\n3"},
		{`count(($x | /site/people)//*)`, "16"},
		{`for $n in ($x | /site/open_auctions)/* return name($n)`, "open_auction\nopen_auction\na\nb\nc"},
	} {
		if got := run(t, doc, x+c.body); got != c.want {
			t.Errorf("%s: got %q, want %q", c.body, got, c.want)
		}
		// As a tree pruner leaves a document: the IDs kept, the count not.
		// The constructed tree must still be numbered clear of them, or its
		// ID interval would cover /site/people's and hide it.
		if got := run(t, &tree.Document{Root: doc.Root}, x+c.body); got != c.want {
			t.Errorf("%s on an uncounted document: got %q, want %q", c.body, got, c.want)
		}
	}
}

// TestEvalBindingLoweredOnce: a binding becomes an XPath value when it is
// made, not before every expression that can see it — an outer let read
// in a for body costs one conversion however often the body runs.
func TestEvalBindingLoweredOnce(t *testing.T) {
	doc := siteDoc(t)
	lowered := func(src string) int {
		ev := NewEvaluator(doc)
		if _, err := ev.Eval(MustParse(src)); err != nil {
			t.Fatalf("Eval(%q): %v", src, err)
		}
		return ev.lowered
	}
	// One let, and one for binding per iteration: 3 persons, then 3 watches.
	const body = ` return (count($all), count($all[@open_auction = "a1"]), $all[1]/@open_auction)`
	perPerson := lowered(`let $all := //watch for $p in /site/people/person` + body)
	perWatch := lowered(`let $all := //watch for $w in //watch` + body)
	if perPerson != 1+3 || perWatch != 1+3 {
		t.Fatalf("%d and %d sequences lowered, want 4 and 4: the let once, the for variable once an iteration", perPerson, perWatch)
	}
}

func TestEvalShadowedBindingRestored(t *testing.T) {
	doc := siteDoc(t)
	got := run(t, doc, `for $x in /site/people/person[1] return
		((for $x in $x/watches/watch return $x/@open_auction), $x/name/text(),
		 (let $x := "inner" return $x), $x/@id)`)
	if got != "a1\na2\nAda\ninner\np0" {
		t.Fatalf("got %q", got)
	}
	ev := NewEvaluator(doc)
	if _, err := ev.Eval(MustParse(`for $x in //person return (let $x := 1 return $x)`)); err != nil {
		t.Fatal(err)
	}
	if len(ev.xe.Vars) != 0 {
		t.Fatalf("bindings left behind: %v", ev.xe.Vars)
	}
}
