// Package xsd implements the paper's footnote-1 extension: "the extension
// of our approach to XML Schema simply needs some special treatment of
// local elements". It parses a practical subset of XML Schema and lowers
// it to the local tree grammar the analysis already understands.
//
// Supported constructs: top-level and local xs:element (inline complex
// types or type references), xs:complexType (top-level and anonymous),
// xs:sequence / xs:choice / xs:all, minOccurs / maxOccurs, xs:attribute,
// mixed content, simple-typed elements (any xs:* simple type becomes
// text). Namespaces other than the XML Schema namespace itself are not
// interpreted.
//
// The special treatment of local elements: a local tree grammar requires
// one content model per tag, while XSD allows the same tag to have
// different local types in different contexts. When that happens the
// lowering merges the declarations — the content model becomes the
// star-guarded union of every observed content, attributes are unioned —
// which over-approximates the schema and therefore keeps projector
// inference sound (π is inferred against a grammar at least as permissive
// as the schema).
//
// Defended by: §2.2's footnote 1 (XML Schema as a local tree grammar).
package xsd

import (
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strings"

	"xmlproj/internal/dtd"
)

// schema mirrors the XSD XML structure (xs namespace).
type schema struct {
	XMLName  xml.Name      `xml:"schema"`
	Elements []element     `xml:"element"`
	Types    []complexType `xml:"complexType"`
}

type element struct {
	Name      string       `xml:"name,attr"`
	Type      string       `xml:"type,attr"`
	Ref       string       `xml:"ref,attr"`
	MinOccurs string       `xml:"minOccurs,attr"`
	MaxOccurs string       `xml:"maxOccurs,attr"`
	Complex   *complexType `xml:"complexType"`
}

type complexType struct {
	Name       string      `xml:"name,attr"`
	Mixed      string      `xml:"mixed,attr"`
	Sequence   *group      `xml:"sequence"`
	Choice     *group      `xml:"choice"`
	All        *group      `xml:"all"`
	Attributes []attribute `xml:"attribute"`
}

type group struct {
	MinOccurs string    `xml:"minOccurs,attr"`
	MaxOccurs string    `xml:"maxOccurs,attr"`
	Elements  []element `xml:"element"`
	Sequences []group   `xml:"sequence"`
	Choices   []group   `xml:"choice"`
}

type attribute struct {
	Name string `xml:"name,attr"`
	Use  string `xml:"use,attr"`
}

// Parse reads an XML Schema and lowers it to a DTD (local tree grammar).
// rootTag selects the root element; if empty, the first top-level element
// declaration is used.
func Parse(r io.Reader, rootTag string) (*dtd.DTD, error) {
	var s schema
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("xsd: %w", err)
	}
	if len(s.Elements) == 0 {
		return nil, fmt.Errorf("xsd: no top-level element declarations")
	}
	l := &lowerer{
		named: map[string]*complexType{},
		decls: map[string]*decl{},
	}
	for i := range s.Types {
		if s.Types[i].Name != "" {
			l.named[s.Types[i].Name] = &s.Types[i]
		}
	}
	for i := range s.Elements {
		l.topLevel = append(l.topLevel, s.Elements[i].Name)
		if err := l.element(&s.Elements[i]); err != nil {
			return nil, err
		}
	}
	if rootTag == "" {
		rootTag = s.Elements[0].Name
	}
	src, err := l.render()
	if err != nil {
		return nil, err
	}
	return dtd.ParseString(src, rootTag)
}

// ParseString is Parse over a string.
func ParseString(src, rootTag string) (*dtd.DTD, error) {
	return Parse(strings.NewReader(src), rootTag)
}

// decl accumulates the (possibly merged) declaration of one tag.
type decl struct {
	// contents collects one rendered content model per occurrence of the
	// tag; more than one triggers the local-element merge.
	contents []string
	mixed    bool
	hasText  bool
	attrs    map[string]bool
	order    int
}

type lowerer struct {
	named    map[string]*complexType
	decls    map[string]*decl
	topLevel []string
	count    int
}

func (l *lowerer) get(tag string) *decl {
	if d, ok := l.decls[tag]; ok {
		return d
	}
	d := &decl{attrs: map[string]bool{}, order: l.count}
	l.count++
	l.decls[tag] = d
	return d
}

// element registers an element declaration and recursively its locals.
func (l *lowerer) element(e *element) error {
	if e.Ref != "" {
		return nil // a reference to a (top-level) declaration
	}
	if e.Name == "" {
		return fmt.Errorf("xsd: element without name or ref")
	}
	d := l.get(e.Name)
	ct := e.Complex
	if ct == nil && e.Type != "" {
		if named, ok := l.named[trimNS(e.Type)]; ok {
			ct = named
		} else if isSimpleType(e.Type) {
			d.hasText = true
			return nil
		} else {
			return fmt.Errorf("xsd: element %s references unknown type %s", e.Name, e.Type)
		}
	}
	if ct == nil {
		// No type at all: xs:anyType-ish; treat as text-only.
		d.hasText = true
		return nil
	}
	if ct.Mixed == "true" {
		d.mixed = true
	}
	for _, a := range ct.Attributes {
		d.attrs[a.Name] = true
	}
	var g *group
	switch {
	case ct.Sequence != nil:
		g = ct.Sequence
	case ct.Choice != nil:
		g = ct.Choice
	case ct.All != nil:
		g = ct.All
	}
	if g == nil {
		if !d.mixed {
			d.contents = append(d.contents, "") // EMPTY (attributes only)
		}
		return nil
	}
	kind := "seq"
	if ct.Choice != nil {
		kind = "choice"
	} else if ct.All != nil {
		// xs:all: order-free; the grammar over-approximates it as a
		// star-guarded union (sound: every permutation matches).
		kind = "all"
	}
	content, err := l.group(g, kind)
	if err != nil {
		return fmt.Errorf("xsd: element %s: %w", e.Name, err)
	}
	d.contents = append(d.contents, content)
	return nil
}

// group renders a model group as DTD content-model syntax, recursing into
// nested groups and registering local element declarations.
func (l *lowerer) group(g *group, kind string) (string, error) {
	var parts []string
	for i := range g.Elements {
		e := &g.Elements[i]
		if err := l.element(e); err != nil {
			return "", err
		}
		name := e.Name
		if name == "" {
			name = trimNS(e.Ref)
		}
		parts = append(parts, name+occurs(e.MinOccurs, e.MaxOccurs))
	}
	for i := range g.Sequences {
		sub, err := l.group(&g.Sequences[i], "seq")
		if err != nil {
			return "", err
		}
		parts = append(parts, "("+sub+")"+occurs(g.Sequences[i].MinOccurs, g.Sequences[i].MaxOccurs))
	}
	for i := range g.Choices {
		sub, err := l.group(&g.Choices[i], "choice")
		if err != nil {
			return "", err
		}
		parts = append(parts, "("+sub+")"+occurs(g.Choices[i].MinOccurs, g.Choices[i].MaxOccurs))
	}
	if len(parts) == 0 {
		return "", nil
	}
	switch kind {
	case "choice":
		return strings.Join(parts, " | "), nil
	case "all":
		// (a | b | …)* over-approximates any interleaving; occurrence
		// bounds inside xs:all are rare and also absorbed by the star.
		stripped := make([]string, len(parts))
		for i, p := range parts {
			stripped[i] = strings.TrimRight(p, "?*+")
		}
		return "(" + strings.Join(stripped, " | ") + ")*", nil
	default:
		return strings.Join(parts, ", "), nil
	}
}

// render emits the accumulated declarations as DTD source.
func (l *lowerer) render() (string, error) {
	tags := make([]string, 0, len(l.decls))
	for t := range l.decls {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return l.decls[tags[i]].order < l.decls[tags[j]].order })

	var sb strings.Builder
	for _, tag := range tags {
		d := l.decls[tag]
		content := mergeContents(d)
		fmt.Fprintf(&sb, "<!ELEMENT %s %s>\n", tag, content)
		if len(d.attrs) > 0 {
			names := make([]string, 0, len(d.attrs))
			for a := range d.attrs {
				names = append(names, a)
			}
			sort.Strings(names)
			fmt.Fprintf(&sb, "<!ATTLIST %s", tag)
			for _, a := range names {
				fmt.Fprintf(&sb, " %s CDATA #IMPLIED", a)
			}
			sb.WriteString(">\n")
		}
	}
	return sb.String(), nil
}

// mergeContents produces one DTD content spec from the collected
// occurrences of a tag (the local-element treatment).
func mergeContents(d *decl) string {
	var nonEmpty []string
	for _, c := range d.contents {
		if c != "" {
			nonEmpty = append(nonEmpty, c)
		}
	}
	textish := d.mixed || d.hasText
	switch {
	case len(nonEmpty) == 0 && !textish:
		return "EMPTY"
	case len(nonEmpty) == 0:
		return "(#PCDATA)"
	case len(nonEmpty) == 1 && !textish:
		return "(" + nonEmpty[0] + ")"
	default:
		// Multiple local declarations or mixed content: star-guarded union
		// of every referenced name (sound over-approximation).
		names := map[string]bool{}
		for _, c := range nonEmpty {
			for _, tok := range strings.FieldsFunc(c, func(r rune) bool {
				return r == ',' || r == '|' || r == '(' || r == ')' || r == ' ' ||
					r == '?' || r == '*' || r == '+'
			}) {
				if tok != "" {
					names[tok] = true
				}
			}
		}
		sorted := make([]string, 0, len(names))
		for n := range names {
			sorted = append(sorted, n)
		}
		sort.Strings(sorted)
		parts := sorted
		if textish {
			parts = append([]string{"#PCDATA"}, parts...)
		}
		return "(" + strings.Join(parts, " | ") + ")*"
	}
}

func occurs(min, max string) string {
	switch {
	case max == "unbounded" && (min == "" || min == "1"):
		return "+"
	case max == "unbounded":
		return "*"
	case min == "0" && (max == "" || max == "1"):
		return "?"
	case min == "0":
		return "*"
	case max != "" && max != "1":
		return "*" // bounded repetition over-approximated by *
	default:
		return ""
	}
}

func trimNS(s string) string {
	if i := strings.IndexByte(s, ':'); i >= 0 {
		return s[i+1:]
	}
	return s
}

func isSimpleType(t string) bool {
	t = trimNS(t)
	switch t {
	case "string", "integer", "int", "long", "short", "decimal", "float",
		"double", "boolean", "date", "dateTime", "time", "anyURI", "token",
		"normalizedString", "ID", "IDREF", "NMTOKEN", "positiveInteger",
		"nonNegativeInteger", "anySimpleType":
		return true
	}
	return false
}
