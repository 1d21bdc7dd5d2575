package dtd

import (
	"strings"
	"testing"
)

// An XHTML-style fragment: entities defining content groups, an entity
// referencing another entity, and conditional sections keyed by entities.
const xhtmlish = `
<!ENTITY % special "br | span">
<!ENTITY % fontstyle "i | b">
<!ENTITY % inline "#PCDATA | %special; | %fontstyle;">
<!ENTITY % strict "INCLUDE">
<!ENTITY % loose "IGNORE">

<!ELEMENT html (body)>
<!ELEMENT body (p*)>
<!ELEMENT p (%inline;)*>
<!ELEMENT br EMPTY>
<!ELEMENT span (%inline;)*>
<!ELEMENT i (%inline;)*>
<!ELEMENT b (%inline;)*>

<![%strict;[
<!ATTLIST p class CDATA #IMPLIED>
]]>
<![%loose;[
<!ATTLIST p align CDATA #IMPLIED>
]]>
`

func TestExpandParameterEntities(t *testing.T) {
	d, err := ParseWithEntities(xhtmlish, "html")
	if err != nil {
		t.Fatal(err)
	}
	p := d.Defs["p"]
	if p == nil {
		t.Fatal("p not declared")
	}
	names := regexNames(p.Content)
	for _, want := range []Name{TextName("p"), "br", "span", "i", "b"} {
		if !names[want] {
			t.Fatalf("p content misses %s (entity expansion broken): %v", want, names)
		}
	}
	// The INCLUDE section applied, the IGNORE one did not.
	if p.AttDef("class") == nil {
		t.Fatal("INCLUDE conditional section dropped")
	}
	if p.AttDef("align") != nil {
		t.Fatal("IGNORE conditional section applied")
	}
}

func TestExpandNestedEntityUse(t *testing.T) {
	src := `
<!ENTITY % leaf "x">
<!ENTITY % pair "%leaf;, %leaf;">
<!ELEMENT r (%pair;)>
<!ELEMENT x (#PCDATA)>
`
	d, err := ParseWithEntities(src, "r")
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Defs["r"].Content.String(); !strings.Contains(got, "x, x") {
		t.Fatalf("r content = %s", got)
	}
}

func TestExpandErrors(t *testing.T) {
	cases := map[string]string{
		"undefined":         `<!ELEMENT r (%nosuch;)>`,
		"cycle":             `<!ENTITY % a "%b;"><!ENTITY % b "%a;"><!ELEMENT r (%a;)>`,
		"bad decl":          `<!ENTITY % broken>`,
		"bad cond":          `<![WHATEVER[ <!ELEMENT r EMPTY> ]]>`,
		"unterminated cond": `<![INCLUDE[ <!ELEMENT r EMPTY>`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ExpandParameterEntities(src); err == nil {
				t.Fatalf("ExpandParameterEntities(%q) succeeded, want error", src)
			}
		})
	}
}

func TestExpandLeavesGeneralEntitiesAlone(t *testing.T) {
	src := `<!ENTITY copy "&#169;"><!ELEMENT r (#PCDATA)>`
	out, err := ExpandParameterEntities(src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<!ENTITY copy") {
		t.Fatalf("general entity mangled: %s", out)
	}
	if _, err := ParseString(out, "r"); err != nil {
		t.Fatal(err)
	}
}

func TestExpandPercentInAttlistSurvives(t *testing.T) {
	// A literal % that is not an entity reference must pass through.
	src := `<!ELEMENT r EMPTY><!ATTLIST r pct CDATA "100%">`
	out, err := ExpandParameterEntities(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ParseString(out, "r")
	if err != nil {
		t.Fatal(err)
	}
	if ad := d.Defs["r"].AttDef("pct"); ad == nil || ad.Default != "100%" {
		t.Fatalf("literal %% lost: %+v", ad)
	}
}
