package xsd

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"xmlproj/internal/dataguide"
	"xmlproj/internal/dtd"
	"xmlproj/internal/testkit"
	"xmlproj/internal/xmark"
)

var updateGrammars = flag.Bool("update", false, "rewrite testdata/grammars.golden from the grammars built now")

const grammarGolden = "testdata/grammars.golden"

// quirksDTD has ANY content, a repeated ATTLIST (the first declaration
// of an attribute wins) and mixed content.
const quirksDTD = `<!ATTLIST doc id ID #IMPLIED>
<!ELEMENT doc (head, (p | list)*)>
<!ELEMENT head ANY>
<!ELEMENT p (#PCDATA | em)*>
<!ELEMENT em (#PCDATA)>
<!ELEMENT list (item+)>
<!ELEMENT item EMPTY>
<!ATTLIST doc id CDATA #REQUIRED lang (en | fr) "en">
<!ATTLIST item n CDATA #FIXED "1">`

// TestGrammarsGolden pins every grammar the fixtures build, through all
// three sources of a local tree grammar: the schemas of this package's
// tests, the XMark DTD, a DTD with ANY, a repeated ATTLIST and mixed
// content, and the dataguide of an XMark document. Each row is the
// grammar's edges, its attribute declarations and its Fingerprint, from
// which the result cache's ETags derive.
func TestGrammarsGolden(t *testing.T) {
	rows := []struct {
		name string
		dtd  func() (*dtd.DTD, error)
	}{
		{"xsd bib", func() (*dtd.DTD, error) { return ParseString(bibXSD, "") }},
		{"xsd shelf", func() (*dtd.DTD, error) { return ParseString(shelfXSD, "") }},
		{"xsd mixed", func() (*dtd.DTD, error) { return ParseString(mixedXSD, "") }},
		{"xsd merged", func() (*dtd.DTD, error) { return ParseString(mergedXSD, "") }},
		{"xsd all", func() (*dtd.DTD, error) { return ParseString(allXSD, "") }},
		{"xsd order", func() (*dtd.DTD, error) { return ParseString(orderXSD, "") }},
		{"xsd required", func() (*dtd.DTD, error) { return ParseString(requiredXSD, "") }},
		{"dtd xmark", func() (*dtd.DTD, error) { return dtd.ParseWithEntities(xmark.DTDSource, "site") }},
		{"dtd quirks", func() (*dtd.DTD, error) { return dtd.ParseString(quirksDTD, "") }},
		{"dataguide xmark 0.01 seed 42", func() (*dtd.DTD, error) {
			return dataguide.FromDocument(xmark.NewGenerator(0.01, 42).Document())
		}},
	}
	var sb strings.Builder
	for _, row := range rows {
		d, err := row.dtd()
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		fmt.Fprintf(&sb, "== %s\n%s", row.name, d)
		for _, n := range testkit.Names(d) {
			for _, a := range d.Defs[n].Atts {
				fmt.Fprintf(&sb, "att %+v\n", a)
			}
		}
		fmt.Fprintf(&sb, "fingerprint %s\n", d.Fingerprint())
	}
	got := sb.String()
	if *updateGrammars {
		if err := os.WriteFile(grammarGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(grammarGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s line %d:\n got  %q\n want %q", grammarGolden, i+1, g, w)
			}
		}
	}
}
