package validate

import (
	"strings"
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/tree"
)

const bibDTD = `
<!ELEMENT bib (book*)>
<!ELEMENT book (title, author+, year?)>
<!ATTLIST book isbn CDATA #REQUIRED
               lang (en|fr|it) "en">
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT year (#PCDATA)>
`

const validDoc = `<bib>
  <book isbn="1"><title>Commedia</title><author>Dante</author><year>1313</year></book>
  <book isbn="2" lang="it"><title>Vita Nova</title><author>Dante</author><author>Alighieri</author></book>
</bib>`

func setup(t *testing.T) (*dtd.DTD, *tree.Document) {
	t.Helper()
	d, err := dtd.ParseString(bibDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := tree.ParseString(validDoc)
	if err != nil {
		t.Fatal(err)
	}
	return d, doc
}

func TestValidDocument(t *testing.T) {
	d, doc := setup(t)
	if err := Document(d, doc); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	// A valid document is walked on the dense tables alone: no name is
	// concatenated, no child sequence collected, no path spelled.
	if n := testing.AllocsPerRun(20, func() { _ = Document(d, doc) }); n != 0 {
		t.Fatalf("validating a valid document allocates %v times, want 0", n)
	}
}

// TestErrorPaths: a path is spelled only on failure, from the failing
// node outwards, and reads as it did when every call carried it down.
func TestErrorPaths(t *testing.T) {
	d, _ := setup(t)
	for doc, want := range map[string]string{
		`<bib><book isbn="1"><title>t</title><author>a</author></book><book isbn="2" lang="de"><title>t</title><author>a</author></book></bib>`: "validate: /bib/book[1]: attribute",
		`<bib><book isbn="1"><title>t</title><zine/></book></bib>`:                                                                              "validate: /bib/book[0]/zine[1]: element not declared",
		`<bib><book isbn="1"><title><year>1</year></title><author>a</author></book></bib>`:                                                      "validate: /bib/book[0]/title[0]: element year (child 0) is not allowed",
		`<zine/>`: "validate: /zine: element not declared",
	} {
		tr, err := tree.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := Document(d, tr); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s\n got %v\nwant prefix %q", doc, err, want)
		}
	}
}

func TestInvalidDocuments(t *testing.T) {
	d, _ := setup(t)
	cases := []struct {
		name, doc, wantMsg string
	}{
		{"wrong root", `<book isbn="1"><title>t</title><author>a</author></book>`, "root element"},
		{"undeclared element", `<bib><zine/></bib>`, "not declared"},
		{"missing title", `<bib><book isbn="1"><author>a</author></book></bib>`, "content model"},
		{"missing author", `<bib><book isbn="1"><title>t</title></book></bib>`, "content model"},
		{"order violated", `<bib><book isbn="1"><author>a</author><title>t</title></book></bib>`, "content model"},
		{"double year", `<bib><book isbn="1"><title>t</title><author>a</author><year>1</year><year>2</year></book></bib>`, "content model"},
		{"missing required attr", `<bib><book><title>t</title><author>a</author></book></bib>`, "required attribute"},
		{"undeclared attr", `<bib><book isbn="1" zzz="no"><title>t</title><author>a</author></book></bib>`, "undeclared attribute"},
		{"enum violated", `<bib><book isbn="1" lang="de"><title>t</title><author>a</author></book></bib>`, "enumeration"},
		{"text where forbidden", `<bib>stray</bib>`, "content model"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			doc, err := tree.ParseString(c.doc)
			if err != nil {
				t.Fatalf("test doc does not parse: %v", err)
			}
			err = Document(d, doc)
			if err == nil {
				t.Fatalf("invalid document accepted")
			}
			if !strings.Contains(err.Error(), c.wantMsg) {
				t.Fatalf("error %q does not mention %q", err, c.wantMsg)
			}
		})
	}
}

func TestFixedAttribute(t *testing.T) {
	d, err := dtd.ParseString(`<!ELEMENT a EMPTY><!ATTLIST a v CDATA #FIXED "1">`, "a")
	if err != nil {
		t.Fatal(err)
	}
	good, _ := tree.ParseString(`<a v="1"/>`)
	if err := Document(d, good); err != nil {
		t.Fatalf("fixed value rejected: %v", err)
	}
	bad, _ := tree.ParseString(`<a v="2"/>`)
	if err := Document(d, bad); err == nil {
		t.Fatal("wrong fixed value accepted")
	}
}

func TestMixedContentValidation(t *testing.T) {
	d, err := dtd.ParseString(`<!ELEMENT p (#PCDATA | em)*><!ELEMENT em (#PCDATA)>`, "p")
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := tree.ParseString(`<p>one <em>two</em> three</p>`)
	if err := Document(d, doc); err != nil {
		t.Fatalf("mixed content rejected: %v", err)
	}
	// Text steps the text column of the element it sits under: em takes
	// text and nothing else, so p's own model does not excuse <em><em/>.
	nested, _ := tree.ParseString(`<p>one <em>two<em>three</em></em></p>`)
	if err := Document(d, nested); err == nil || !strings.Contains(err.Error(), "/p/em[1]") {
		t.Fatalf("em inside em: got %v, want an error at /p/em[1]", err)
	}
}

func TestRecursiveDTDValidation(t *testing.T) {
	d, err := dtd.ParseString(`<!ELEMENT part (name, part*)><!ELEMENT name (#PCDATA)>`, "part")
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := tree.ParseString(`<part><name>top</name><part><name>sub</name></part></part>`)
	if err := Document(d, doc); err != nil {
		t.Fatalf("recursive structure rejected: %v", err)
	}
}

func TestEmptyDocument(t *testing.T) {
	d, _ := dtd.ParseString(`<!ELEMENT a EMPTY>`, "a")
	if err := Document(d, &tree.Document{}); err == nil {
		t.Fatal("nil root accepted")
	}
}

func TestApplyDefaults(t *testing.T) {
	d, err := dtd.ParseString(`
<!ELEMENT r (e*)>
<!ELEMENT e EMPTY>
<!ATTLIST e lang (en|fr) "en" fix CDATA #FIXED "1" opt CDATA #IMPLIED>
`, "r")
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := tree.ParseString(`<r><e/><e lang="fr"/></r>`)
	added := ApplyDefaults(d, doc)
	if added != 3 { // lang+fix on first, fix on second
		t.Fatalf("added = %d, want 3", added)
	}
	e1, e2 := doc.Root.Children[0], doc.Root.Children[1]
	if v, _ := e1.Attr("lang"); v != "en" {
		t.Fatalf("default lang not applied: %q", v)
	}
	if v, _ := e2.Attr("lang"); v != "fr" {
		t.Fatalf("explicit lang overwritten: %q", v)
	}
	if v, _ := e1.Attr("fix"); v != "1" {
		t.Fatalf("fixed value not applied: %q", v)
	}
	if _, present := e1.Attr("opt"); present {
		t.Fatal("#IMPLIED attribute must not be defaulted")
	}
	// Idempotent.
	if again := ApplyDefaults(d, doc); again != 0 {
		t.Fatalf("second pass added %d", again)
	}
}
