package xquery

import (
	"strings"
	"testing"

	"xmlproj/internal/core"
	"xmlproj/internal/dtd"
	"xmlproj/internal/gen"
	"xmlproj/internal/testkit"
	"xmlproj/internal/validate"
)

func extracted(t *testing.T, src string) []string {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	paths := Extract(q)
	out := make([]string, len(paths))
	for i, p := range paths {
		out[i] = p.String()
	}
	return out
}

func hasPath(paths []string, want string) bool {
	for _, p := range paths {
		if p == want {
			return true
		}
	}
	return false
}

func TestExtractSimpleFor(t *testing.T) {
	paths := extracted(t, `for $p in /site/people/person return $p/name`)
	if !hasPath(paths, "/self::site/child::people/child::person") {
		t.Fatalf("missing binding path: %v", paths)
	}
	// The result path must be materialised (m=1 appends dos, line 6/10).
	found := false
	for _, p := range paths {
		if strings.HasPrefix(p, "/self::site/child::people/child::person/child::name/descendant-or-self::node()") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing materialised result path: %v", paths)
	}
}

func TestExtractLetNotMaterialisedWhenUnused(t *testing.T) {
	paths := extracted(t, `for $p in /a/b let $x := $p/c return count($x)`)
	// count needs only the nodes: no dos after c.
	for _, p := range paths {
		if strings.Contains(p, "child::c/descendant-or-self") {
			t.Fatalf("count argument materialised: %v", paths)
		}
	}
	found := false
	for _, p := range paths {
		if strings.Contains(p, "child::c") {
			found = true
		}
	}
	if !found {
		t.Fatalf("let path lost: %v", paths)
	}
}

func TestExtractWhereCondition(t *testing.T) {
	paths := extracted(t, `for $p in /s/p where $p/x = 3 return $p/y`)
	// The comparison operand needs its string-value.
	found := false
	for _, p := range paths {
		if strings.Contains(p, "child::x/descendant-or-self::node()") {
			found = true
		}
	}
	if !found {
		t.Fatalf("where operand not extracted: %v", paths)
	}
}

func TestExtractElementConstructor(t *testing.T) {
	paths := extracted(t, `for $p in /s/p return <o a="{$p/x}">{ $p/y }</o>`)
	var hasX, hasY bool
	for _, p := range paths {
		if strings.Contains(p, "child::x") {
			hasX = true
		}
		if strings.Contains(p, "child::y/descendant-or-self") {
			hasY = true
		}
	}
	if !hasX || !hasY {
		t.Fatalf("constructor needs lost: %v", paths)
	}
}

func TestExtractPredicateBecomesCondition(t *testing.T) {
	paths := extracted(t, `for $p in /s/p[x] return $p/y`)
	found := false
	for _, p := range paths {
		if strings.Contains(p, "child::p[child::x]") {
			found = true
		}
	}
	if !found {
		t.Fatalf("predicate lost: %v", paths)
	}
}

func TestExtractQuantified(t *testing.T) {
	paths := extracted(t, `for $a in /s/a where some $w in $a/w satisfies $w/@k = "x" return $a/n`)
	var hasW, hasK bool
	for _, p := range paths {
		if strings.Contains(p, "child::w") {
			hasW = true
		}
		if strings.Contains(p, "attribute::k") {
			hasK = true
		}
	}
	if !hasW || !hasK {
		t.Fatalf("quantifier needs lost: %v", paths)
	}
}

func TestExtractFreeVariableIsRoot(t *testing.T) {
	paths := extracted(t, `$doc/site/people`)
	if !hasPath(paths, "/self::site/child::people/descendant-or-self::node()") {
		// $doc unbound → treated as root; /$doc/site/people ≈ /site/people.
		t.Fatalf("free-variable path wrong: %v", paths)
	}
}

// The §5 heuristic.
func TestRewriteForIf(t *testing.T) {
	src := `for $y in /s//node() return if ($y/k = "v") then $y/n else ()`
	q := MustParse(src)
	rw := RewriteForIf(q)
	f, ok := rw.(For)
	if !ok {
		t.Fatalf("rewritten = %#v", rw)
	}
	if _, isIf := f.Return.(If); isIf {
		t.Fatalf("if not eliminated: %s", rw)
	}
	s := rw.String()
	if !strings.Contains(s, "[((self::node()/child::k") && !strings.Contains(s, "[(child::k") {
		// The predicate must reference the context node, not $y.
		if strings.Contains(s, "$y/k") && strings.Contains(s, "if") {
			t.Fatalf("condition not pushed: %s", s)
		}
	}
	if strings.Contains(f.In.String(), "$y") {
		t.Fatalf("loop variable leaked into the in-path: %s", f.In)
	}
}

func TestRewriteForIfKeepsElse(t *testing.T) {
	src := `for $y in /s/a return if ($y/k) then $y/n else $y/m`
	q := MustParse(src)
	if _, ok := RewriteForIf(q).(For).Return.(If); !ok {
		t.Fatal("non-empty else must not be rewritten")
	}
}

func TestRewriteForIfRejectsForeignVars(t *testing.T) {
	src := `for $x in /s/a return for $y in /s/b return if ($y/k = $x/k) then $y else ()`
	q := MustParse(src)
	inner := RewriteForIf(q).(For).Return.(For)
	if _, ok := inner.Return.(If); !ok {
		t.Fatal("condition referencing an outer variable must not be pushed")
	}
}

func TestRewriteForIfRejectsPositional(t *testing.T) {
	src := `for $y in /s/a return if (count($y/k) > position()) then $y else ()`
	q := MustParse(src)
	if _, ok := RewriteForIf(q).(For).Return.(If); !ok {
		t.Fatal("positional condition must not be pushed")
	}
}

// TestRewriteImprovesPruning demonstrates the §5 claim: without the
// rewriting, a for over …//node() extracts a path ending in
// descendant-or-self::node() and pruning degenerates; with it, the
// condition restricts the projector.
func TestRewriteImprovesPruning(t *testing.T) {
	d, err := dtd.ParseString(`
<!ELEMENT s (a*, junk*)>
<!ELEMENT a (k, n)>
<!ELEMENT k (#PCDATA)>
<!ELEMENT n (#PCDATA)>
<!ELEMENT junk (payload)>
<!ELEMENT payload (#PCDATA)>
`, "s")
	if err != nil {
		t.Fatal(err)
	}
	src := `for $y in /s/descendant-or-self::node() return if ($y/k = "v") then $y/k else ()`
	q := MustParse(src)

	without, err := core.Infer(d, Extract(q))
	if err != nil {
		t.Fatal(err)
	}
	with, err := core.Infer(d, Extract(RewriteForIf(q)))
	if err != nil {
		t.Fatal(err)
	}
	if !without.Has("junk") {
		t.Fatalf("without rewriting the projector should degenerate: %s", without)
	}
	if with.Has("junk") || with.Has("payload") {
		t.Fatalf("with rewriting junk must be pruned: %s", with)
	}
	if !with.Has("a") || !with.Has("k") {
		t.Fatalf("rewritten projector misses needed names: %s", with)
	}
}

// XQuery-level soundness: serialised results on the original and the
// pruned document coincide.
func TestXQuerySoundness(t *testing.T) {
	d, err := dtd.ParseString(`
<!ELEMENT site (people, auctions)>
<!ELEMENT people (person*)>
<!ELEMENT person (name, watches?)>
<!ATTLIST person id CDATA #REQUIRED>
<!ELEMENT name (#PCDATA)>
<!ELEMENT watches (watch*)>
<!ELEMENT watch EMPTY>
<!ATTLIST watch auction CDATA #REQUIRED>
<!ELEMENT auctions (auction*)>
<!ELEMENT auction (seller?, price)>
<!ATTLIST auction id CDATA #REQUIRED>
<!ELEMENT seller (#PCDATA)>
<!ATTLIST seller person CDATA #REQUIRED>
<!ELEMENT price (#PCDATA)>
`, "site")
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`for $p in /site/people/person return $p/name/text()`,
		`for $p in /site/people/person where $p/watches return <w id="{$p/@id}">{ count($p/watches/watch) }</w>`,
		`count(for $a in /site/auctions/auction where $a/price >= 40 return $a)`,
		`for $p in /site/people/person let $w := for $a in /site/auctions/auction where some $x in $p/watches/watch satisfies $x/@auction = $a/@id return $a return <r>{ $p/name/text() }{ count($w) }</r>`,
		`for $c in distinct-values(//watch/@auction) return <c>{ $c }</c>`,
		`for $p in /site/people/person order by $p/name/text() return $p/@id`,
		`sum(/site/auctions/auction/price)`,
		`if (//auction[seller]) then <found/> else <none/>`,
		`for $a in //auction return if ($a/seller = "Ada") then $a/price/text() else ()`,
		// Returned elements whose descendants carry attributes.
		`for $p in /site/people/person return $p`,
		`for $a in /site/auctions/auction return $a`,
		// Variables inside predicates resolve through Γ.
		`for $a in /site/auctions/auction return /site/people/person[@id != $a/@id]/name/text()`,
		`for $p in /site/people/person return //auction[seller != $p/name]/seller/@person`,
	}
	for seed := int64(0); seed < 6; seed++ {
		doc := gen.New(d, seed, gen.Options{MaxDepth: 6}).Document()
		if err := validate.Document(d, doc); err != nil {
			t.Fatal(err)
		}
		for _, src := range queries {
			q := MustParse(src)
			paths := Extract(RewriteForIf(q))
			pr, err := core.Infer(d, paths)
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			pruned := testkit.Prune(doc, pr.Compiled())
			origSeq, err := NewEvaluator(doc).Eval(q)
			if err != nil {
				t.Fatalf("%q on original: %v", src, err)
			}
			if pruned.NumNodes() == 0 {
				t.Fatalf("%q: projector dropped the root: %s", src, pr)
			}
			prunedSeq, err := NewEvaluator(pruned).Eval(q)
			if err != nil {
				t.Fatalf("%q on pruned: %v", src, err)
			}
			if o, p := Serialize(origSeq), Serialize(prunedSeq); o != p {
				t.Fatalf("%q differs after pruning:\norig:   %q\npruned: %q\nπ = %s\ndoc = %s",
					src, o, p, pr, doc.XML())
			}
		}
	}
}
