package xmlproj

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"xmlproj/internal/core"
	"xmlproj/internal/dtd"
	"xmlproj/internal/xmark"
	"xmlproj/internal/xsd"
)

// fuzzXMark is the auction DTD and a small document valid against it
// (118 nodes: a query nesting a few loops over //* still ends quickly).
var fuzzXMark = sync.OnceValues(func() (*DTD, *Document) {
	d, err := ParseDTDString(xmark.DTDSource, "site")
	if err != nil {
		panic(err)
	}
	doc, err := ParseXMLString(xmark.NewGenerator(0.00005, 1).Document().XML())
	if err != nil {
		panic(err)
	}
	return d, doc
})

// FuzzCompile feeds the query parsers untrusted text: whatever Compile
// accepts, the static side (Fig. 1's type checker, Infer) and the
// evaluator must
// handle without a panic, and the compiled query keeps its source.
func FuzzCompile(f *testing.F) {
	for _, want := range q10Serialized {
		f.Add(benchmarkQuerySource(want.id))
	}
	f.Add(`for $p in /site/people/person let $n := $p/name where $p/@id != "" order by $n return $n`)
	f.Add(`some $b in //bidder satisfies $b/increase > 10`)
	f.Add(`every $i in //item satisfies exists($i/name)`)
	f.Add(`<r a="{count(//item)}">{ //person[1]/name/text() }</r>`)
	f.Add(`()`)
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Compile(src)
		if err != nil {
			return
		}
		if q.Source() != src {
			t.Fatalf("Source() = %q, compiled from %q", q.Source(), src)
		}
		d, doc := fuzzXMark()
		c := core.NewChecker(d.d)
		for _, p := range q.paths {
			c.Type(p)
		}
		q.DataNeeds()
		for _, mode := range []Mode{NodesOnly, Materialized} {
			if p, err := d.Infer(mode, q); err == nil {
				p.Names()
			}
		}
		q.Evaluate(doc)
	})
}

// FuzzParseDTD feeds the DTD parser (parameter entities, conditional
// sections, attribute lists) untrusted text: whatever it accepts must
// answer the Def. 4.3 property checks and render its grammar, infer a
// projector for //node() whose MarshalText loads back as the same
// projector, and prune a one-element document with validation, all
// without a panic.
func FuzzParseDTD(f *testing.F) {
	f.Add(xmark.DTDSource)
	f.Add(apiDTD)
	f.Add(`<!ENTITY % inline "#PCDATA | em">
<!ENTITY % strict "INCLUDE">
<!ENTITY % loose "IGNORE">
<!ELEMENT doc (head, body)>
<![%strict;[ <!ELEMENT head (title)> ]]>
<![%loose;[ <!ELEMENT head ANY> ]]>
<!ELEMENT title (%inline;)*>
<!ELEMENT body (p+)>
<!ELEMENT p (%inline;)*>
<!ELEMENT em (#PCDATA)>
<!ATTLIST doc version CDATA #FIXED "1.0" lang (en|fr) "en">
<!ATTLIST p id ID #IMPLIED>`)
	f.Fuzz(func(t *testing.T, src string) {
		d, err := ParseDTDString(src, "")
		if err != nil {
			return
		}
		d.IsStarGuarded()
		d.IsRecursive()
		d.IsParentUnambiguous()
		d.Grammar()
		q, err := CompileXPath("//node()")
		if err != nil {
			t.Fatal(err)
		}
		p, err := d.Infer(Materialized, q)
		if err != nil {
			return
		}
		text, err := p.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		back, err := d.LoadProjector(text)
		if err != nil {
			t.Fatalf("LoadProjector rejects MarshalText's rendering: %v\nprojector: %q", err, text)
		}
		if !slices.Equal(back.Names(), p.Names()) {
			t.Fatalf("projector does not round-trip\ninferred: %q\nloaded:   %q", p.Names(), back.Names())
		}
		p.PruneStreamOpts(io.Discard, strings.NewReader("<"+d.Root()+"/>"), StreamOptions{Validate: true})
	})
}

// FuzzLoadProjector feeds LoadProjector untrusted projector text — what
// xmlprune -load-projector reads from a file — over XMark's DTD: it loads
// exactly when every name in it is one of the grammar's (π ⊆ DN(E)), and
// what it loads holds the root, holds nothing but grammar names and loads
// back from its MarshalText rendering with the same names, all without a
// panic.
func FuzzLoadProjector(f *testing.F) {
	f.Add("name\nname#text\npeople\nperson\nperson@id\nsite") // QM01's
	f.Add("nosuch")
	f.Add("person@undeclared")
	f.Add("site#text") // site holds elements only
	f.Add("")
	f.Add("person@")
	f.Add("person@<")
	f.Add("person@x@y")
	d, _ := fuzzXMark()
	syms := d.d.Symbols()
	grammar := func(n string) bool { _, ok := syms.Sym(dtd.Name(n)); return ok }
	f.Fuzz(func(t *testing.T, text string) {
		p, err := d.LoadProjector([]byte(text))
		if err != nil {
			if !slices.ContainsFunc(strings.Fields(text), func(n string) bool { return !grammar(n) }) {
				t.Fatalf("rejected %q, which names only the grammar's names: %v", text, err)
			}
			return
		}
		names := p.Names()
		if !slices.Contains(names, d.Root()) {
			t.Fatalf("loaded %q without the root: %q", text, names)
		}
		for _, n := range names {
			if !grammar(n) {
				t.Fatalf("loaded %q with %q, which is not a name of the grammar", text, n)
			}
		}
		out, err := p.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		back, err := d.LoadProjector(out)
		if err != nil {
			t.Fatalf("LoadProjector rejects MarshalText's rendering %q of %q: %v", out, text, err)
		}
		if !slices.Equal(back.Names(), names) {
			t.Fatalf("%q does not round-trip\nloaded:   %q\nreloaded: %q", text, names, back.Names())
		}
	})
}

// FuzzParseXSD feeds the XML Schema lowering — the route a .xsd file takes
// into every tool through ParseSchemaFile — untrusted text: whatever it
// accepts must lower to the same grammar twice, answer the Def. 4.3
// property checks, infer a projector for //node() and prune a
// one-element document with validation, all without a panic.
func FuzzParseXSD(f *testing.F) {
	seeds, err := filepath.Glob("internal/xsd/testdata/*.xsd")
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed schemas: %v", err)
	}
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		x, err := xsd.Parse(strings.NewReader(src), "")
		if err != nil {
			return
		}
		y, err := xsd.Parse(strings.NewReader(src), "")
		if err != nil {
			t.Fatalf("accepted once, then rejected: %v", err)
		}
		d, again := &DTD{d: x}, &DTD{d: y}
		if d.Grammar() != again.Grammar() || d.d.Fingerprint() != again.d.Fingerprint() {
			t.Fatalf("one schema, two grammars\n%s\n%s", d.Grammar(), again.Grammar())
		}
		d.IsStarGuarded()
		d.IsRecursive()
		d.IsParentUnambiguous()
		q, err := CompileXPath("//node()")
		if err != nil {
			t.Fatal(err)
		}
		p, err := d.Infer(Materialized, q)
		if err != nil {
			return
		}
		p.PruneStreamOpts(io.Discard, strings.NewReader("<"+d.Root()+"/>"), StreamOptions{Validate: true})
	})
}
