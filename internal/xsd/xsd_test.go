package xsd

import (
	"strings"
	"testing"

	"xmlproj/internal/core"
	"xmlproj/internal/dtd"
	"xmlproj/internal/prune"
	"xmlproj/internal/tree"
	"xmlproj/internal/validate"
	"xmlproj/internal/xpath"
	"xmlproj/internal/xpathl"
)

const bibXSD = `<?xml version="1.0"?>
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

func TestParseBibXSD(t *testing.T) {
	d, err := ParseString(bibXSD, "")
	if err != nil {
		t.Fatal(err)
	}
	if d.Root != "bib" {
		t.Fatalf("root = %s", d.Root)
	}
	book := d.Def("book")
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
	if td := d.Def(dtd.TextName("title")); td == nil || !td.Text {
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
	src := `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="library" type="shelfType"/>
  <xs:complexType name="shelfType">
    <xs:sequence>
      <xs:element name="shelf" type="shelfContent" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
  </xs:complexType>
  <xs:complexType name="shelfContent">
    <xs:choice>
      <xs:element name="novel" type="xs:string"/>
      <xs:element name="atlas" type="xs:string"/>
    </xs:choice>
  </xs:complexType>
</xs:schema>`
	d, err := ParseString(src, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Def("shelf").Content.String(); got != "(novel | atlas)" {
		t.Fatalf("shelf content = %s", got)
	}
}

func TestMixedContent(t *testing.T) {
	src := `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="p">
    <xs:complexType mixed="true">
      <xs:sequence>
        <xs:element name="em" type="xs:string" minOccurs="0" maxOccurs="unbounded"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>`
	d, err := ParseString(src, "")
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
	src := `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="r">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="a">
          <xs:complexType><xs:sequence>
            <xs:element name="item" type="xs:string"/>
          </xs:sequence></xs:complexType>
        </xs:element>
        <xs:element name="b">
          <xs:complexType><xs:sequence>
            <xs:element name="item">
              <xs:complexType><xs:sequence>
                <xs:element name="deep" type="xs:string"/>
              </xs:sequence></xs:complexType>
            </xs:element>
          </xs:sequence></xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>`
	d, err := ParseString(src, "")
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
	src := `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="cfg">
    <xs:complexType>
      <xs:all>
        <xs:element name="host" type="xs:string"/>
        <xs:element name="port" type="xs:integer"/>
      </xs:all>
    </xs:complexType>
  </xs:element>
</xs:schema>`
	d, err := ParseString(src, "")
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
	q := xpath.MustParse(`//book[year]/title`)
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
	pruned := prune.Tree(doc, pr.Compiled())
	before, _ := xpath.NewEvaluator(doc).Select(q)
	after, err := xpath.NewEvaluator(pruned).Select(q)
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
	for in, want := range cases {
		if got := occurs(in[0], in[1]); got != want {
			t.Errorf("occurs(%q, %q) = %q, want %q", in[0], in[1], got, want)
		}
	}
	if !strings.Contains("?*+", occurs("0", "unbounded")) {
		t.Fatal("sanity")
	}
}
