package xmlproj

import (
	"io"
	"strings"
	"testing"
)

// validateDTD is the grammar of internal/validate's tests: a required
// attribute, an enumeration with a default, a sequence with + and ?.
const validateDTD = `
<!ELEMENT bib (book*)>
<!ELEMENT book (title, author+, year?)>
<!ATTLIST book isbn CDATA #REQUIRED
               lang (en|fr|it) "en">
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT year (#PCDATA)>
`

// catalogDTD and catalogDeep are the quickstart example's grammar and a
// document whose one violation lies inside a subtree //product/name
// discards: a review holds an element, and a review is #PCDATA.
const (
	catalogDTD = `
<!ELEMENT catalog (product*)>
<!ELEMENT product (name, price, stock?, review*)>
<!ATTLIST product sku CDATA #REQUIRED>
<!ELEMENT name (#PCDATA)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT stock (#PCDATA)>
<!ELEMENT review (#PCDATA)>
`
	catalogDeep = `<catalog><product sku="a"><name>n</name><price>1</price><review>x<name>bad</name></review></product></catalog>`
)

// TestValidate runs DTD.Validate, the scanner's validating pass with π =
// every name, over the cases the tree validator (internal/validate, the
// tests' oracle of Def. 2.4) is tested on, and over the violation a
// narrower validating prune does not see. want is empty for a valid
// document, else what the error says after "validate: ".
func TestValidate(t *testing.T) {
	for _, c := range []struct {
		name, dtd, root, doc, want string
	}{
		{"valid", validateDTD, "", `<bib>
  <book isbn="1"><title>Commedia</title><author>Dante</author><year>1313</year></book>
  <book isbn="2" lang="it"><title>Vita Nova</title><author>Dante</author><author>Alighieri</author></book>
</bib>`, ""},
		{"wrong root", validateDTD, "", `<book isbn="1"><title>t</title><author>a</author></book>`, "root element is book, DTD requires bib"},
		{"undeclared element", validateDTD, "", `<bib><zine/></bib>`, `element "zine" not declared in DTD`},
		{"missing title", validateDTD, "", `<bib><book isbn="1"><author>a</author></book></bib>`, "element author not allowed here in content of book"},
		{"missing author", validateDTD, "", `<bib><book isbn="1"><title>t</title></book></bib>`, "content of book is incomplete (model "},
		{"order violated", validateDTD, "", `<bib><book isbn="1"><author>a</author><title>t</title></book></bib>`, "element author not allowed here in content of book"},
		{"double year", validateDTD, "", `<bib><book isbn="1"><title>t</title><author>a</author><year>1</year><year>2</year></book></bib>`, "element year not allowed here in content of book"},
		{"missing required attr", validateDTD, "", `<bib><book><title>t</title><author>a</author></book></bib>`, `missing required attribute "isbn" on book`},
		{"undeclared attr", validateDTD, "", `<bib><book isbn="1" zzz="no"><title>t</title><author>a</author></book></bib>`, `undeclared attribute "zzz" on book`},
		{"enum violated", validateDTD, "", `<bib><book isbn="1" lang="de"><title>t</title><author>a</author></book></bib>`, `attribute "lang" on book has value "de" outside its enumeration`},
		{"text where forbidden", validateDTD, "", `<bib>stray</bib>`, "text content not allowed in bib"},
		{"fixed value", `<!ELEMENT a EMPTY><!ATTLIST a v CDATA #FIXED "1">`, "a", `<a v="1"/>`, ""},
		{"wrong fixed value", `<!ELEMENT a EMPTY><!ATTLIST a v CDATA #FIXED "1">`, "a", `<a v="2"/>`, `attribute "v" on a must have fixed value "1"`},
		{"mixed content", `<!ELEMENT p (#PCDATA | em)*><!ELEMENT em (#PCDATA)>`, "p", `<p>one <em>two</em> three</p>`, ""},
		// Text steps the text column of the element it sits under: em
		// takes text and nothing else, so p's own model does not excuse
		// <em><em/>.
		{"em inside em", `<!ELEMENT p (#PCDATA | em)*><!ELEMENT em (#PCDATA)>`, "p", `<p>one <em>two<em>three</em></em></p>`, "element em not allowed here in content of em"},
		{"recursive", `<!ELEMENT part (name, part*)><!ELEMENT name (#PCDATA)>`, "part", `<part><name>top</name><part><name>sub</name></part></part>`, ""},
		{"empty document", `<!ELEMENT a EMPTY>`, "a", ``, "no root element"},
		{"deep violation", catalogDTD, "catalog", catalogDeep, "element name not allowed here in content of review"},
	} {
		t.Run(c.name, func(t *testing.T) {
			d, err := ParseDTDString(c.dtd, c.root)
			if err != nil {
				t.Fatal(err)
			}
			err = d.Validate(strings.NewReader(c.doc))
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("valid document rejected: %v", err)
			case c.want == "":
			case err == nil:
				t.Fatalf("invalid document accepted, want %q", c.want)
			case !strings.HasPrefix(err.Error(), "validate: ") || !strings.Contains(err.Error(), c.want):
				t.Fatalf("got %q, want %q after \"validate: \"", err, c.want)
			}
		})
	}
}

// TestValidateChecksWhatANarrowPruneSkips: a validating prune checks the
// DTD over what π keeps and only well-formedness inside a subtree π
// discards, so with π = {//product/name} it accepts a document whose
// violation lies in a review; DTD.Validate, which keeps every name,
// rejects it.
func TestValidateChecksWhatANarrowPruneSkips(t *testing.T) {
	d, err := ParseDTDString(catalogDTD, "catalog")
	if err != nil {
		t.Fatal(err)
	}
	q, err := CompileXPath(`//product/name`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Infer(Materialized, q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Has("review") {
		t.Fatalf("π keeps review: %s", p)
	}
	if _, err := p.PruneStreamOpts(io.Discard, strings.NewReader(catalogDeep), StreamOptions{Validate: true}); err != nil {
		t.Fatalf("the validating prune with π = %s rejects: %v", p, err)
	}
	const want = "validate: element name not allowed here in content of review"
	if err := d.Validate(strings.NewReader(catalogDeep)); err == nil || err.Error() != want {
		t.Fatalf("DTD.Validate: got %v, want %q", err, want)
	}
}
