// Package xsd implements the paper's footnote-1 extension: "the extension
// of our approach to XML Schema simply needs some special treatment of
// local elements". It reads a practical subset of XML Schema as a
// document and lowers it to the local tree grammar the analysis already
// understands, built by dtd.New like any other.
//
// Supported constructs: top-level and local xs:element (inline complex
// types or type references), xs:complexType (top-level and anonymous),
// xs:sequence / xs:choice / xs:all in document order, minOccurs /
// maxOccurs, xs:attribute with use="required", mixed content,
// simple-typed elements (any xs:* simple type becomes text). Namespace
// prefixes are dropped, as the loader drops them.
//
// The special treatment of local elements: a local tree grammar requires
// one content model per tag, while XSD allows the same tag to have
// different local types in different contexts. When that happens the
// lowering merges the declarations — the content model becomes the
// star-guarded union of every observed content, attributes are unioned
// and required only where every declaration requires them —
// which over-approximates the schema and therefore keeps projector
// inference sound (π is inferred against a grammar at least as permissive
// as the schema).
//
// Defended by: §2.2's footnote 1 (XML Schema as a local tree grammar).
package xsd

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"xmlproj/internal/dtd"
	"xmlproj/internal/tree"
)

// Parse reads an XML Schema with tree.Parse, the scanner every other
// input goes through, lowers its declarations to content models in the
// order the schema writes them, and builds the local tree grammar with
// dtd.New. rootTag selects the root element; if empty, the first
// top-level element declaration is used.
func Parse(r io.Reader, rootTag string) (*dtd.DTD, error) {
	doc, err := tree.Parse(r)
	if err != nil {
		return nil, fmt.Errorf("xsd: %w", err)
	}
	s := doc.Root()
	if s.Tag() != "schema" {
		return nil, fmt.Errorf("xsd: root element is <%s>, not <schema>", s.Tag())
	}
	l := &lowerer{named: map[string]tree.Node{}, decls: map[string]*decl{}}
	var tops []tree.Node
	for c := s.FirstChild(); c.Valid(); c = c.NextSibling() {
		switch c.Tag() {
		case "complexType":
			if name := attr(c, "name"); name != "" {
				l.named[name] = c
			}
		case "element":
			tops = append(tops, c)
		}
	}
	if len(tops) == 0 {
		return nil, fmt.Errorf("xsd: no top-level element declarations")
	}
	for _, e := range tops {
		if _, err := l.element(e); err != nil {
			return nil, err
		}
	}
	elems := make([]dtd.Element, len(l.order))
	for i, tag := range l.order {
		elems[i] = l.decls[tag].lower(tag)
	}
	return dtd.New(rootTag, elems)
}

// decl accumulates the (possibly merged) declaration of one tag.
type decl struct {
	// contents collects one content model per complex-typed occurrence
	// of the tag; more than one triggers the local-element merge.
	contents []dtd.Regex
	// text is set by mixed content and by simple types.
	text bool
	// n counts the declarations of the tag; attrs maps each attribute
	// any of them declares to how many, from the first on, require it.
	n     int
	attrs map[string]int
	// types are the complex types the tag has been lowered with.
	types []tree.Node
}

type lowerer struct {
	named map[string]tree.Node
	decls map[string]*decl
	order []string
}

// element registers an element declaration and recursively its locals,
// and returns the tag it declares or refers to.
func (l *lowerer) element(e tree.Node) (string, error) {
	if ref := attr(e, "ref"); ref != "" {
		return trimNS(ref), nil // a reference to a (top-level) declaration
	}
	name := attr(e, "name")
	if name == "" {
		return "", fmt.Errorf("xsd: element without name or ref")
	}
	d := l.decls[name]
	if d == nil {
		d = &decl{attrs: map[string]int{}}
		l.decls[name] = d
		l.order = append(l.order, name)
	}
	ct := child(e, "complexType")
	if !ct.Valid() {
		typ := attr(e, "type")
		named, ok := l.named[trimNS(typ)]
		switch {
		case ok:
			ct = named
		case typ == "" || isSimpleType(typ):
			// No type at all is xs:anyType-ish: treated as text-only.
			d.n++
			d.text = true
			return name, nil
		default:
			return "", fmt.Errorf("xsd: element %s references unknown type %s", name, typ)
		}
	}
	// A tag meets one complex type once: again through a named type it
	// is the same declaration, and within its own type a recursive one.
	if slices.Contains(d.types, ct) {
		return name, nil
	}
	d.types = append(d.types, ct)
	d.n++
	if attr(ct, "mixed") == "true" {
		d.text = true
	}
	for a := ct.FirstChild(); a.Valid(); a = a.NextSibling() {
		if a.Tag() != "attribute" {
			continue
		}
		an := attr(a, "name")
		if an == "" {
			return "", fmt.Errorf("xsd: element %s: attribute without a name", name)
		}
		// Required only while every declaration so far requires it: a
		// merge that disagrees stays optional, an over-approximation.
		r := d.attrs[an]
		if attr(a, "use") == "required" && r == d.n-1 {
			r = d.n
		}
		d.attrs[an] = r
	}
	g := child(ct, "sequence", "choice", "all")
	if !g.Valid() {
		return name, nil // EMPTY (attributes only) or mixed text
	}
	content, err := l.group(g)
	if err != nil {
		return "", fmt.Errorf("xsd: element %s: %w", name, err)
	}
	if content != nil {
		d.contents = append(d.contents, content)
	}
	return name, nil
}

// group lowers a model group to a content model over its particles in
// document order, recursing into nested groups and registering local
// element declarations. A group with no particles is nil.
func (l *lowerer) group(g tree.Node) (dtd.Regex, error) {
	var items []dtd.Regex
	for c := g.FirstChild(); c.Valid(); c = c.NextSibling() {
		var item dtd.Regex
		var err error
		switch c.Tag() {
		case "element":
			var name string
			name, err = l.element(c)
			item = dtd.Ref{Name: dtd.Name(name)}
		case "sequence", "choice":
			if item, err = l.group(c); item == nil {
				item = dtd.Epsilon{}
			}
		default:
			continue
		}
		if err != nil {
			return nil, err
		}
		if g.Tag() != "all" {
			item = occurs(attr(c, "minOccurs"), attr(c, "maxOccurs"), item)
		}
		items = append(items, item)
	}
	if len(items) == 0 {
		return nil, nil
	}
	r := items[0]
	switch {
	case len(items) > 1 && g.Tag() == "sequence":
		r = dtd.Seq{Items: items}
	case len(items) > 1:
		r = dtd.Alt{Items: items}
	}
	if g.Tag() == "all" {
		// xs:all is order-free: (a | b | …)* over-approximates any
		// interleaving, and absorbs the occurrence bounds inside it.
		r = dtd.Star{Inner: r}
	}
	return r, nil
}

// lower produces the one declaration of a tag from its collected
// occurrences (the local-element treatment): a lone content model as it
// is, several — or any with text — as the star-guarded union of every
// name they reference, a sound over-approximation.
func (d *decl) lower(tag string) dtd.Element {
	e := dtd.Element{Tag: tag, Content: dtd.Epsilon{}, Atts: dtd.ImpliedCDATA(d.attrs)}
	for i := range e.Atts {
		e.Atts[i].Required = d.attrs[e.Atts[i].Attr] == d.n
	}
	switch {
	case len(d.contents) == 1 && !d.text:
		e.Content = d.contents[0]
	case len(d.contents) > 0 || d.text:
		names := map[string]bool{}
		for _, c := range d.contents {
			dtd.WalkRefs(c, func(n dtd.Name) { names[string(n)] = true })
		}
		e.Content, e.Text = dtd.StarUnion(tag, d.text, names), d.text
	}
	return e
}

// occurs applies a particle's minOccurs and maxOccurs to r.
func occurs(min, max string, r dtd.Regex) dtd.Regex {
	switch {
	case max == "unbounded" && (min == "" || min == "1"):
		return dtd.Plus{Inner: r}
	case max == "unbounded":
		return dtd.Star{Inner: r}
	case min == "0" && (max == "" || max == "1"):
		return dtd.Opt{Inner: r}
	case min == "0":
		return dtd.Star{Inner: r}
	case max != "" && max != "1":
		return dtd.Star{Inner: r} // bounded repetition over-approximated by *
	default:
		return r
	}
}

// attr is the value of e's attribute, "" when absent.
func attr(e tree.Node, name string) string {
	v, _ := e.Attr(name)
	return v
}

// child is e's first child element with one of the tags, or the zero
// Node.
func child(e tree.Node, tags ...string) tree.Node {
	for c := e.FirstChild(); c.Valid(); c = c.NextSibling() {
		if slices.Contains(tags, c.Tag()) {
			return c
		}
	}
	return tree.Node{}
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
