package xsd

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlproj/internal/core"
	"xmlproj/internal/dtd"
	"xmlproj/internal/prune"
	"xmlproj/internal/testkit"
	"xmlproj/internal/tree"
	"xmlproj/internal/validate"
	"xmlproj/internal/xpathl"
)

// bibXSD is a bibliography: a reference to a top-level element, simple
// types, occurrence bounds and a required attribute.
var bibXSD = schema("bib.xsd")

// shelfXSD types its elements by reference to named complex types.
var shelfXSD = schema("shelf.xsd")

// mixedXSD declares mixed content.
var mixedXSD = schema("mixed.xsd")

// mergedXSD declares item locally twice, with two different types.
var mergedXSD = schema("merged.xsd")

// allXSD is an order-free xs:all.
var allXSD = schema("all.xsd")

// orderXSD mixes elements and a nested xs:choice in one xs:sequence: its
// content model is (a, (x | y), b), in the order the schema writes it.
var orderXSD = schema("order.xsd")

// requiredXSD requires id on every declaration of item and lang on one
// of two: only id is #REQUIRED in the merged grammar.
var requiredXSD = schema("required.xsd")

// recursiveXSD nests section in itself through its named type.
var recursiveXSD = schema("recursive.xsd")

// schema reads a schema of testdata/, which FuzzParseXSD seeds from too.
func schema(name string) string {
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		panic(err)
	}
	return string(b)
}

func TestParseBibXSD(t *testing.T) {
	d, err := ParseString(bibXSD, "")
	if err != nil {
		t.Fatal(err)
	}
	if d.Root != "bib" {
		t.Fatalf("root = %s", d.Root)
	}
	book := d.Defs["book"]
	if book == nil {
		t.Fatal("book missing")
	}
	if got := book.Content.String(); got != "(title, author+, year?)" {
		t.Fatalf("book content = %s", got)
	}
	if book.AttDef("isbn") == nil {
		t.Fatal("isbn attribute lost")
	}
	// Simple-typed elements became text elements.
	if td := d.Defs[dtd.TextName("title")]; td == nil || !td.Text {
		t.Fatal("title text name missing")
	}

	doc, err := tree.ParseString(`<bib><book isbn="1"><title>t</title><author>a</author></book></bib>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := validate.Document(d, doc); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	bad, _ := tree.ParseString(`<bib><book isbn="1"><author>a</author><title>t</title></book></bib>`)
	if err := validate.Document(d, bad); err == nil {
		t.Fatal("sequence order violation accepted")
	}
}

func TestNamedTypeReference(t *testing.T) {
	d, err := ParseString(shelfXSD, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Defs["shelf"].Content.String(); got != "(novel | atlas)" {
		t.Fatalf("shelf content = %s", got)
	}
}

func TestMixedContent(t *testing.T) {
	d, err := ParseString(mixedXSD, "")
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := tree.ParseString(`<p>one <em>two</em> three</p>`)
	if err := validate.Document(d, doc); err != nil {
		t.Fatalf("mixed instance rejected: %v", err)
	}
}

// The footnote's "special treatment of local elements": the same tag with
// two different local types merges into one sound declaration.
func TestLocalElementsMerged(t *testing.T) {
	d, err := ParseString(mergedXSD, "")
	if err != nil {
		t.Fatal(err)
	}
	// item occurs with text content under a and with a deep child under b:
	// the merged declaration must allow both.
	for _, docSrc := range []string{
		`<r><a><item>text</item></a><b><item><deep>x</deep></item></b></r>`,
	} {
		doc, _ := tree.ParseString(docSrc)
		if err := validate.Document(d, doc); err != nil {
			t.Fatalf("merged-locals instance rejected: %v\ngrammar:\n%s", err, d)
		}
	}
}

func TestXsAllOverApproximated(t *testing.T) {
	d, err := ParseString(allXSD, "")
	if err != nil {
		t.Fatal(err)
	}
	// Both orders validate (xs:all is order-free).
	for _, docSrc := range []string{
		`<cfg><host>h</host><port>80</port></cfg>`,
		`<cfg><port>80</port><host>h</host></cfg>`,
	} {
		doc, _ := tree.ParseString(docSrc)
		if err := validate.Document(d, doc); err != nil {
			t.Fatalf("%s rejected: %v", docSrc, err)
		}
	}
}

// End to end: infer a projector from an XSD-derived grammar and prune.
func TestXSDProjectorSoundness(t *testing.T) {
	d, err := ParseString(bibXSD, "")
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := tree.ParseString(`<bib>
<book isbn="1"><title>Commedia</title><author>Dante</author><year>1313</year></book>
<book isbn="2"><title>Decameron</title><author>Boccaccio</author></book>
</bib>`)
	q := testkit.XPath(`//book[year]/title`)
	paths, err := xpathl.FromQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := core.InferMaterialized(d, paths)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Has("author") || pr.Has(dtd.TextName("author")) {
		t.Fatalf("projector keeps authors: %s", pr)
	}
	pruned := testkit.Prune(doc, pr.Compiled())
	before, _ := testkit.Select(doc, q)
	after, err := testkit.Select(pruned, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != len(after) || before[0].StringValue() != after[0].StringValue() {
		t.Fatalf("XSD-based pruning changed the result")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"empty schema": `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"/>`,
		"unknown type": `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="a" type="nosuchType"/></xs:schema>`,
		"nameless":     `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element/></xs:schema>`,
		"not xml":      `{"not": "xml"}`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseString(src, ""); err == nil {
				t.Fatalf("accepted: %s", src)
			}
		})
	}
}

func TestOccursMapping(t *testing.T) {
	cases := map[[2]string]string{
		{"", ""}:           "",
		{"0", "1"}:         "?",
		{"0", ""}:          "?",
		{"1", "unbounded"}: "+",
		{"", "unbounded"}:  "+",
		{"0", "unbounded"}: "*",
		{"2", "5"}:         "*",
	}
	// suffix is the operator occurs puts on a name.
	suffix := func(min, max string) string {
		return strings.TrimPrefix(occurs(min, max, dtd.Ref{Name: "a"}).String(), "a")
	}
	for in, want := range cases {
		if got := suffix(in[0], in[1]); got != want {
			t.Errorf("occurs(%q, %q) = %q, want %q", in[0], in[1], got, want)
		}
	}
	if !strings.Contains("?*+", suffix("0", "unbounded")) {
		t.Fatal("sanity")
	}
}

// A sequence keeps its particles in the order the schema writes them,
// a nested choice among elements included.
func TestSequenceKeepsOrder(t *testing.T) {
	d, err := ParseString(orderXSD, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Defs["r"].Content.String(); got != "(a, (x | y), b)" {
		t.Fatalf("r content = %s", got)
	}
	if !accepts(t, d, `<r><a/><x/><b/></r>`) {
		t.Fatal("an instance in schema order is rejected")
	}
	if accepts(t, d, `<r><a/><b/><x/></r>`) {
		t.Fatal("an instance out of schema order is accepted")
	}
}

// use="required" holds when every declaration of the tag requires the
// attribute; declarations that disagree leave it optional.
func TestRequiredAttribute(t *testing.T) {
	d, err := ParseString(requiredXSD, "")
	if err != nil {
		t.Fatal(err)
	}
	if id := d.Defs["item"].AttDef("id"); id == nil || !id.Required {
		t.Fatalf("item@id = %+v, want required", id)
	}
	if lang := d.Defs["item"].AttDef("lang"); lang == nil || lang.Required {
		t.Fatalf("item@lang = %+v, want optional", lang)
	}
	if !accepts(t, d, `<r><a><item id="1" lang="en"/></a><b><item id="2"/></b></r>`) {
		t.Fatal("an instance with every required attribute is rejected")
	}
	if accepts(t, d, `<r><a/><b><item lang="en"/></b></r>`) {
		t.Fatal("an instance missing a required attribute is accepted")
	}
}

// accepts reports whether src is valid against d, asking both validators
// — validate.Document over the loaded tree and a validating prune of the
// bytes that keeps every element, so that it validates every one — and
// failing the test when they disagree.
func accepts(t *testing.T, d *dtd.DTD, src string) bool {
	t.Helper()
	doc, err := tree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	treeErr := validate.Document(d, doc)
	_, pruneErr := prune.Stream(io.Discard, strings.NewReader(src), d, dtd.NewNameSet(testkit.Names(d)...), prune.StreamOptions{Validate: true})
	if (treeErr == nil) != (pruneErr == nil) {
		t.Fatalf("the validators disagree on %s\ntree:  %v\nprune: %v", src, treeErr, pruneErr)
	}
	return treeErr == nil
}

// A named type that declares its own tag again lowers once: the grammar
// is recursive, the lowering is not.
func TestRecursiveNamedType(t *testing.T) {
	d, err := ParseString(recursiveXSD, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Defs["section"].Content.String(); got != "(title, section*)" {
		t.Fatalf("section content = %s", got)
	}
	if id := d.Defs["section"].AttDef("id"); id == nil || !id.Required {
		t.Fatalf("section@id = %+v, want required", id)
	}
	if !d.IsRecursive() {
		t.Fatal("a recursive schema gave a non-recursive grammar")
	}
	if !accepts(t, d, `<section id="1"><title>a</title><section id="2"><title>b</title></section></section>`) {
		t.Fatal("a nested instance is rejected")
	}
}

// The schema is read by the loader, which takes nothing after the root
// element but whitespace, comments and processing instructions.
func TestParseRejectsTrailingContent(t *testing.T) {
	for _, tail := range []string{"<xs:schema/>", "junk"} {
		if _, err := ParseString(shelfXSD+tail, ""); err == nil {
			t.Errorf("accepted a schema followed by %q", tail)
		}
	}
}

// ParseString is Parse over a string.
func ParseString(src, rootTag string) (*dtd.DTD, error) {
	return Parse(strings.NewReader(src), rootTag)
}
