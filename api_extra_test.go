package xmlproj

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestProjectorMarshalRoundTrip(t *testing.T) {
	d, _ := apiSetup(t)
	q, _ := CompileXPath(`//book[year]/title`)
	p, err := d.Infer(Materialized, q)
	if err != nil {
		t.Fatal(err)
	}
	text, err := p.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := d.LoadProjector(text)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(p.Names(), " ") != strings.Join(p2.Names(), " ") {
		t.Fatalf("round trip changed projector:\n%v\n%v", p.Names(), p2.Names())
	}
	// The loaded projector prunes identically.
	if loadPruned(t, p, apiDoc).XML() != loadPruned(t, p2, apiDoc).XML() {
		t.Fatal("loaded projector prunes differently")
	}
}

func TestLoadProjectorRejectsForeignNames(t *testing.T) {
	d, _ := apiSetup(t)
	if _, err := d.LoadProjector([]byte("bib\nnotaname")); err == nil {
		t.Fatal("foreign name accepted")
	}
	// Attribute and text names of declared elements are fine.
	if _, err := d.LoadProjector([]byte("bib\nbook\nbook@isbn\ntitle#text")); err != nil {
		t.Fatal(err)
	}
	// The root is always re-added.
	p, err := d.LoadProjector([]byte("book"))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Has("bib") {
		t.Fatal("root not re-added")
	}
}

func TestParseDTDWithEntities(t *testing.T) {
	d, err := ParseDTDString(`
<!ENTITY % kids "a | b">
<!ELEMENT r (%kids;)*>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b EMPTY>
`, "r")
	if err != nil {
		t.Fatal(err)
	}
	if d.Root() != "r" {
		t.Fatalf("root = %s", d.Root())
	}
	q, _ := CompileXPath("//a")
	if _, err := d.Infer(NodesOnly, q); err != nil {
		t.Fatal(err)
	}
}

func TestInferDTDDataguide(t *testing.T) {
	const src = `<r><a k="1"><b>x</b></a><a k="2"/><junk><blob>zzz</blob></junk></r>`
	doc, err := ParseXMLString(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := InferDTD(doc)
	if err != nil {
		t.Fatal(err)
	}
	if d.Root() != "r" {
		t.Fatalf("root = %s", d.Root())
	}
	if err := d.Validate(strings.NewReader(src)); err != nil {
		t.Fatalf("document invalid against its own dataguide: %v", err)
	}
	q, _ := CompileXPath("//a[b]/@k")
	p, err := d.Infer(Materialized, q)
	if err != nil {
		t.Fatal(err)
	}
	pruned := loadPruned(t, p, src)
	if p.Has("junk") || p.Has("blob") {
		t.Fatalf("dataguide projector keeps junk: %s", p)
	}
	r1, _ := q.Evaluate(doc)
	r2, err := q.Evaluate(pruned)
	if err != nil || r1.Serialized != r2.Serialized {
		t.Fatalf("schemaless pruning changed result: %q vs %q (%v)", r1.Serialized, r2.Serialized, err)
	}
}

func TestParseXSDAPI(t *testing.T) {
	xsdSrc := `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="r"><xs:complexType><xs:sequence>
    <xs:element name="a" type="xs:string" maxOccurs="unbounded"/>
    <xs:element name="b" type="xs:string" minOccurs="0"/>
  </xs:sequence></xs:complexType></xs:element>
</xs:schema>`
	dir := t.TempDir()
	path := filepath.Join(dir, "r.xsd")
	if err := os.WriteFile(path, []byte(xsdSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := ParseSchemaFile(path, "")
	if err != nil {
		t.Fatal(err)
	}
	const src = `<r><a>one</a><a>two</a><b>x</b></r>`
	if err := d.Validate(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	q, _ := CompileXPath("//a")
	p, err := d.Infer(Materialized, q)
	if err != nil {
		t.Fatal(err)
	}
	pruned := loadPruned(t, p, src)
	if strings.Contains(pruned.XML(), "<b>") {
		t.Fatalf("b not pruned: %s", pruned.XML())
	}
	junk := filepath.Join(dir, "junk.xsd")
	if err := os.WriteFile(junk, []byte("<junk/>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSchemaFile(junk, ""); err == nil {
		t.Fatal("junk schema accepted")
	}
	if _, err := ParseSchemaFile(filepath.Join(dir, "missing.xsd"), ""); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestParseSchemaFile: the file name picks the parser — the one rule the
// three tools share.
func TestParseSchemaFile(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"r.xsd": `<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"><xs:element name="r" type="xs:string"/></xs:schema>`,
		"r.dtd": `<!ELEMENT r (#PCDATA)>`,
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := ParseSchemaFile(path, "")
		if err != nil || d.Root() != "r" {
			t.Fatalf("%s: root %v, err %v", name, d, err)
		}
	}
	// A DTD under an .xsd name is not sniffed: the name decides.
	path := filepath.Join(dir, "dtd.xsd")
	os.WriteFile(path, []byte(files["r.dtd"]), 0o644)
	if _, err := ParseSchemaFile(path, ""); err == nil {
		t.Fatal("a DTD named .xsd parsed")
	}
	if _, err := ParseSchemaFile(filepath.Join(dir, "missing.dtd"), ""); err == nil {
		t.Fatal("missing file accepted")
	}
}
