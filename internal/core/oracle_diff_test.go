package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/gen"
	"xmlproj/internal/xmark"
	"xmlproj/internal/xpath"
	"xmlproj/internal/xpathl"
	"xmlproj/internal/xpathmark"
	"xmlproj/internal/xquery"
	"xmlproj/internal/xsd"
)

// diffRelations compares every relation row of the symbol table with the
// oracle's map closures, name by name.
func diffRelations(t testing.TB, d *dtd.DTD, o *oracleGrammar) {
	t.Helper()
	s := d.Symbols()
	check := func(what string, n dtd.Name, got dtd.Row, want dtd.NameSet) {
		t.Helper()
		if g := s.NameSet(got); !g.Equal(want) {
			t.Fatalf("%s(%s): rows %s, oracle %s\ngrammar:\n%s", what, n, g, want, d)
		}
	}
	for x := int32(0); x < int32(s.NumNames()); x++ {
		n := s.Name(x)
		single := dtd.NewNameSet(n)
		check("content", n, s.Content.Row(x), o.ContentNames(n))
		check("atts", n, s.Atts.Row(x), o.AttNames(single))
		check("parents", n, s.Parents.Row(x), o.Parents(n))
		check("descendants", n, s.Descendants.Row(x), o.ContentDescendants(single))
		check("ancestors", n, s.Ancestors.Row(x), o.Ancestors(single))
	}
	check("reachable", d.Root, d.ReachableFromRoot(), o.ReachableFromRoot())
	if got, want := d.IsRecursive(), o.IsRecursive(); got != want {
		t.Fatalf("IsRecursive: rows %v, oracle %v\ngrammar:\n%s", got, want, d)
	}
	if got, want := d.IsParentUnambiguous(), o.IsParentUnambiguous(); got != want {
		t.Fatalf("IsParentUnambiguous: rows %v, oracle %v\ngrammar:\n%s", got, want, d)
	}
}

// diffPaths runs the four entry points of the analysis on both
// implementations and requires equal name sets.
func diffPaths(t testing.TB, d *dtd.DTD, o *oracleGrammar, label string, paths []*xpathl.Path) {
	t.Helper()
	s := d.Symbols()
	fail := func(what string, got, want dtd.NameSet) {
		t.Helper()
		var srcs []string
		for _, p := range paths {
			srcs = append(srcs, p.String())
		}
		t.Fatalf("%s: %s differs\n rows   %s\n oracle %s\npaths:\n  %s\ngrammar:\n%s",
			label, what, got, want, strings.Join(srcs, "\n  "), d)
	}
	c, oc := NewChecker(d), newOracleChecker(o)
	for _, p := range paths {
		if got, want := s.NameSet(c.Type(p)), oc.Type(p); !got.Equal(want) {
			fail("Type("+p.String()+")", got, want)
		}
	}
	for _, f := range []struct {
		what   string
		rows   func(*dtd.DTD, []*xpathl.Path) (*Projector, error)
		oracle func(*oracleGrammar, []*xpathl.Path) (dtd.NameSet, error)
	}{
		{"Infer", Infer, oracleInfer},
		{"InferNoContext", InferNoContext, oracleInferNoContext},
		{"InferMaterialized", InferMaterialized, oracleInferMaterialized},
	} {
		pr, err := f.rows(d, paths)
		want, oerr := f.oracle(o, paths)
		if (err == nil) != (oerr == nil) {
			t.Fatalf("%s: %s: rows error %v, oracle error %v", label, f.what, err, oerr)
		}
		if err != nil {
			continue
		}
		if !pr.Names.Equal(want) {
			fail(f.what, pr.Names, want)
		}
		if got := s.NameSet(pr.Compiled().Row()); !got.Equal(want) {
			fail(f.what+" (compiled row)", got, want)
		}
	}
}

// attributeProbes are queries through the attribute axis, which the
// random query generator does not draw: three for the grammar, three
// for each of its first three elements that declare attributes.
func attributeProbes(d *dtd.DTD) []string {
	probes := []string{"//@*", "/descendant::*/attribute::*/parent::node()", "//*[@*]/child::node()"}
	for _, n := range d.Names() {
		def := d.Def(n)
		if def.Text || len(def.Atts) == 0 {
			continue
		}
		if len(probes) == 12 {
			break
		}
		a := def.Atts[0].Attr
		probes = append(probes,
			fmt.Sprintf("//%s/@%s", def.Tag, a),
			fmt.Sprintf("//*[@%s]/ancestor::*", a),
			fmt.Sprintf("//@%s/parent::%s/descendant::text()", a, def.Tag))
	}
	return probes
}

func mustPaths(t testing.TB, src string) []*xpathl.Path {
	t.Helper()
	paths, err := xpathl.FromQuery(xpath.MustParse(src))
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return paths
}

// diffRandom is one random DTD against n random queries (plus the
// attribute probes); it returns how many DTD × query pairs it compared.
func diffRandom(t testing.TB, seed int64, elements, n int) int {
	t.Helper()
	d := gen.RandomDTD(seed, gen.DTDOptions{Elements: elements, AllowRecursion: seed%3 != 1, AttrChance: 40})
	o := newOracleGrammar(d)
	diffRelations(t, d, o)
	qg := gen.NewQueryGen(d, seed*31+7, gen.QueryOptions{MaxSteps: 5, MaxPreds: 2, AllAxes: true})
	pairs := 0
	for qi := 0; qi < n; qi++ {
		q := qg.Query()
		paths, err := xpathl.FromQuery(q)
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, q, err)
		}
		diffPaths(t, d, o, fmt.Sprintf("seed %d: %s", seed, q), paths)
		pairs++
	}
	for _, src := range attributeProbes(d) {
		diffPaths(t, d, o, fmt.Sprintf("seed %d: %s", seed, src), mustPaths(t, src))
		pairs++
	}
	return pairs
}

// TestOracleDifferentialRandom runs the bit-row analysis against the
// map-based oracle over random DTD × random query pairs with fixed
// seeds: small grammars (one word), and grammars past the 64- and the
// 128-name word boundaries.
func TestOracleDifferentialRandom(t *testing.T) {
	pairs := 0
	for seed := int64(0); seed < 40; seed++ {
		pairs += diffRandom(t, seed, 6+int(seed%7), 12)
	}
	for seed := int64(100); seed < 106; seed++ {
		pairs += diffRandom(t, seed, 45, 8) // > 64 names
	}
	for seed := int64(200); seed < 204; seed++ {
		pairs += diffRandom(t, seed, 90, 6) // > 128 names
	}
	if pairs < 500 {
		t.Fatalf("only %d DTD × query pairs compared, want ≥ 500", pairs)
	}
	t.Logf("%d DTD × query pairs agree", pairs)
}

// TestOracleDifferentialWordBoundaries checks that the random grammars
// above really do cross the word boundaries they are there for.
func TestOracleDifferentialWordBoundaries(t *testing.T) {
	if n := gen.RandomDTD(100, gen.DTDOptions{Elements: 45, AttrChance: 40}).Symbols().NumNames(); n <= 64 || n > 128 {
		t.Fatalf("45-element grammar has %d names, want two words", n)
	}
	if n := gen.RandomDTD(200, gen.DTDOptions{Elements: 90, AttrChance: 40}).Symbols().NumNames(); n <= 128 {
		t.Fatalf("90-element grammar has %d names, want three words", n)
	}
	if n := xmark.DTD().ReachableFromRoot().Len(); n != 126 {
		t.Fatalf("XMark's grammar has %d reachable names, want 126", n)
	}
}

const oracleXSD = `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="bib">
    <xs:complexType>
      <xs:sequence>
        <xs:element ref="book" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
  <xs:element name="book">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="title" type="xs:string"/>
        <xs:element name="author" type="xs:string" maxOccurs="unbounded"/>
        <xs:element name="year" type="xs:integer" minOccurs="0"/>
      </xs:sequence>
      <xs:attribute name="isbn" use="required"/>
    </xs:complexType>
  </xs:element>
</xs:schema>`

// TestOracleDifferentialFixedGrammars covers the grammars the rest of
// this package's tests are written against — recursive, parent-ambiguous,
// the Thm. 4.7 counterexample, the §6 stress grammar — plus an
// XSD-lowered grammar and one with an ANY element.
func TestOracleDifferentialFixedGrammars(t *testing.T) {
	fromXSD, err := xsd.ParseString(oracleXSD, "")
	if err != nil {
		t.Fatal(err)
	}
	grammars := map[string]*dtd.DTD{
		"paper (recursive)":   paperDTD(t),
		"bib":                 bibDTD(t),
		"thm 4.7":             thm47DTD(t),
		"parent-ambiguous":    dtd.MustParseString(`<!ELEMENT a (b, c)><!ELEMENT b (c)><!ELEMENT c EMPTY><!ATTLIST c k CDATA #IMPLIED>`, "a"),
		"unguarded recursive": dtd.MustParseString(`<!ELEMENT c (a | b)><!ELEMENT a (a*, t)><!ELEMENT t (#PCDATA)><!ELEMENT b (#PCDATA)>`, "c"),
		"ANY":                 dtd.MustParseString(`<!ELEMENT r (e, w)><!ELEMENT e EMPTY><!ATTLIST e id ID #REQUIRED><!ELEMENT w ANY>`, "r"),
		"xsd":                 fromXSD,
		"stress":              largeDTD(6, 4),
	}
	queries := []string{
		"self::node()", "//node()", "/descendant-or-self::node()/descendant-or-self::node()",
		"child::*/child::*", "descendant::text()/parent::node()/parent::node()",
		"//*[child::*]/child::text()", "//*[not(child::*)]/ancestor-or-self::*",
		"descendant::*[ancestor::*/child::text()]", "//*/following-sibling::*", "//text()/preceding::*",
		"child::nosuch", "/*/*/parent::*/child::*[descendant::text() = 'x' or parent::*]",
	}
	for name, d := range grammars {
		o := newOracleGrammar(d)
		diffRelations(t, d, o)
		for _, src := range append(queries, attributeProbes(d)...) {
			diffPaths(t, d, o, name+": "+src, mustPaths(t, src))
		}
		qg := gen.NewQueryGen(d, 5, gen.QueryOptions{MaxSteps: 6, MaxPreds: 2, AllAxes: true})
		for i := 0; i < 25; i++ {
			q := qg.Query()
			paths, err := xpathl.FromQuery(q)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, q, err)
			}
			diffPaths(t, d, o, fmt.Sprintf("%s: %s", name, q), paths)
		}
	}
}

// benchmarkNeeds returns the data-need paths of the 43 benchmark queries
// on the XMark grammar, as xqrun and xmlprune extract them.
func benchmarkNeeds(t testing.TB) (ids []string, needs [][]*xpathl.Path) {
	t.Helper()
	for _, q := range xmark.Queries {
		ast, err := xquery.Parse(q.Source)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		ids, needs = append(ids, q.ID), append(needs, xquery.Extract(xquery.RewriteForIf(ast)))
	}
	for _, q := range xpathmark.Queries {
		ids, needs = append(ids, q.ID), append(needs, mustPaths(t, q.Source))
	}
	return ids, needs
}

// TestOracleDifferentialBenchmark: new against old on all 43 XMark and
// XPathMark queries over the XMark grammar (two words).
func TestOracleDifferentialBenchmark(t *testing.T) {
	d := xmark.DTD()
	o := newOracleGrammar(d)
	diffRelations(t, d, o)
	ids, needs := benchmarkNeeds(t)
	for i, paths := range needs {
		diffPaths(t, d, o, ids[i], paths)
	}
}

// FuzzInferDifferential is the same differential over seeds the fuzzer
// picks: the seed draws the grammar and the queries, size the number of
// elements — up to 49, past the first word boundary; the map-based
// oracle takes seconds on the three-word grammars the fixed seeds above
// cover, which a fuzz worker reads as a hang.
func FuzzInferDifferential(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 100, 200} {
		f.Add(seed, uint8(10))
	}
	f.Fuzz(func(t *testing.T, seed int64, size uint8) {
		diffRandom(t, seed, 2+int(size%48), 6)
	})
}

// TestInferAllocs holds QM14 — the benchmark's costliest inference,
// 66 943 allocations when every set was a map — under 25 000, so the
// rows cannot quietly become maps again.
func TestInferAllocs(t *testing.T) {
	d := xmark.DTD()
	ids, needs := benchmarkNeeds(t)
	for i, id := range ids {
		if id != "QM14" {
			continue
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Infer(d, needs[i]); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("QM14: %.0f allocations per inference", allocs)
		if allocs >= 25000 {
			t.Fatalf("QM14 inference costs %.0f allocations, want < 25000", allocs)
		}
		return
	}
	t.Fatal("QM14 not in the benchmark set")
}

// TestConcurrentInfer: the daemon shares one grammar across requests, so
// inferences over one *dtd.DTD — the first of which builds the symbol
// table — must not meet (run under -race).
func TestConcurrentInfer(t *testing.T) {
	d := dtd.MustParseString(xmark.DTDSource, "site") // fresh: no Symbols() yet
	ids, needs := benchmarkNeeds(t)
	want := make([]dtd.NameSet, len(ids))
	o := newOracleGrammar(d)
	for i := range ids {
		var err error
		if want[i], err = oracleInferMaterialized(o, needs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range ids {
				i := (k + 5*g) % len(ids)
				pr, err := InferMaterialized(d, needs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if !pr.Names.Equal(want[i]) {
					t.Errorf("goroutine %d: %s: π = %s, want %s", g, ids[i], pr, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
