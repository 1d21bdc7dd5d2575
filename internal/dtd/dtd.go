// Package dtd implements DTDs as local tree grammars (§2.2 of the paper):
// a distinguished root name X and a set of edges X_i → a_i[r_i] or
// X_i → String, where each r_i is a regular expression over names.
//
// The package parses real DTD syntax (<!ELEMENT …>, <!ATTLIST …>), builds
// the grammar, compiles content models to deterministic automata for
// validation, computes the reachability relation ⇒E and chains, and decides
// the Def. 4.3 properties (*-guarded, non-recursive, parent-unambiguous)
// that govern completeness of the analysis.
//
// Defended by: §2.2 and Def. 4.3; timed as `dtd.parse_us` and `dtd.compile_projection_us`.
package dtd

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Name is a non-terminal name of the grammar (X, Y, Z … in the paper).
// Element names coincide with their tag; the text name of element X is
// "X#text" (the §6 heuristic gives every String name a single occurrence);
// the attribute a of element X has the derived name "X@a". Which kind a
// name is, is a fact of the grammar (Def.Text, the Text and Attr rows of
// Symbols), not of its spelling.
type Name string

// TextName returns the String name of the text content of element name e.
func TextName(e Name) Name { return e + "#text" }

// AttrName returns the derived name of attribute attr of element name e.
func AttrName(e Name, attr string) Name { return e + "@" + Name(attr) }

// AttDef describes one attribute declared by <!ATTLIST>.
type AttDef struct {
	// Attr is the attribute name as written in the document.
	Attr string
	// Name is the derived grammar name ("elem@attr").
	Name Name
	// Type is the declared type (CDATA, ID, IDREF, NMTOKEN, enumeration …),
	// kept verbatim; validation only distinguishes enumerations.
	Type string
	// Enum holds the allowed values for enumerated types.
	Enum []string
	// Required is true for #REQUIRED attributes.
	Required bool
	// Fixed holds the #FIXED value, if any.
	Fixed string
	// Default holds the declared default value, if any.
	Default string
	// HasDefault reports whether Default is meaningful.
	HasDefault bool
}

// Def is one edge of the grammar.
type Def struct {
	// Name is the defined non-terminal.
	Name Name
	// Text is true for Y → String edges; Tag and Content are then unused.
	Text bool
	// Tag is the element tag a of X → a[r].
	Tag string
	// Content is the content model r, a regular expression over names.
	// For EMPTY content it is Epsilon; for ANY it is a star over all
	// element names (fixed up after parsing).
	Content Regex
	// Atts lists declared attributes in declaration order.
	Atts []AttDef
}

// AttDef returns the declaration for the named attribute, or nil.
func (d *Def) AttDef(attr string) *AttDef {
	for i := range d.Atts {
		if d.Atts[i].Attr == attr {
			return &d.Atts[i]
		}
	}
	return nil
}

// DTD is a local tree grammar (X, E).
type DTD struct {
	// Root is the distinguished root name X.
	Root Name
	// Defs maps each defined name to its edge.
	Defs map[Name]*Def
	// ByTag maps element tags to their defining name (condition 3 of local
	// tree grammars: tags determine names).
	ByTag map[string]Name
	// order preserves declaration order for deterministic output.
	order []Name

	// syms is the symbol table with the grammar's relations as bit rows,
	// built lazily once (the grammar is immutable after parsing).
	symOnce sync.Once
	syms    *Symbols

	// fp is Fingerprint's memo.
	fpOnce sync.Once
	fp     string
}

// Element is one element declaration of a grammar under construction,
// New's input: what an <!ELEMENT> and its <!ATTLIST>s declare, what the
// XML Schema lowering derives, what a dataguide observes.
type Element struct {
	// Tag is the element tag, which is also the element's name.
	Tag string
	// Content is the content model over names (Epsilon for EMPTY); text
	// content is a Ref to TextName(Tag), as in mixed content.
	Content Regex
	// Any marks ANY content: New replaces Content by a star over the
	// element's text name and every declared element.
	Any bool
	// Text gives the element a text name (mixed and #PCDATA content).
	Text bool
	// Atts are the attribute declarations, Name unset: New derives it.
	Atts []AttDef
}

// New builds the local tree grammar of the declared elements. It is the
// one constructor of a DTD: the DTD parser, the XML Schema lowering and
// the dataguide all call it. rootTag names the root element; if empty,
// the first declared element is the root. Definitions keep declaration
// order, each element's text name right after it (an ANY element's after
// every declaration); of two declarations of one attribute the first
// wins, as in XML. A duplicate element, a name holding the '@' of derived
// attribute names, and a reference to an undeclared element are errors.
func New(rootTag string, elems []Element) (*DTD, error) {
	d := &DTD{Defs: map[Name]*Def{}, ByTag: map[string]Name{}}
	for _, e := range elems {
		if strings.Contains(e.Tag, "@") || slices.ContainsFunc(e.Atts, func(a AttDef) bool { return strings.Contains(a.Attr, "@") }) {
			return nil, fmt.Errorf("dtd: element %s: a name holds '@', which derived attribute names use", e.Tag)
		}
		name := Name(e.Tag)
		def := &Def{Name: name, Tag: e.Tag, Content: e.Content}
		if err := d.add(def); err != nil {
			return nil, err
		}
		if e.Text {
			if err := d.add(&Def{Name: TextName(name), Text: true}); err != nil {
				return nil, err
			}
		}
		for _, a := range e.Atts {
			if def.AttDef(a.Attr) == nil {
				a.Name = AttrName(name, a.Attr)
				def.Atts = append(def.Atts, a)
			}
		}
	}
	if len(d.order) == 0 {
		return nil, fmt.Errorf("dtd: no element declarations")
	}
	d.Root = d.order[0]
	if rootTag != "" {
		n, ok := d.ByTag[rootTag]
		if !ok {
			return nil, fmt.Errorf("dtd: root element %q not declared", rootTag)
		}
		d.Root = n
	}
	for _, e := range elems {
		if !e.Any {
			continue
		}
		tn := TextName(Name(e.Tag))
		if _, ok := d.Defs[tn]; !ok {
			if err := d.add(&Def{Name: tn, Text: true}); err != nil {
				return nil, err
			}
		}
		alts := []Regex{Ref{tn}}
		for _, n := range d.order {
			if !d.Defs[n].Text {
				alts = append(alts, Ref{n})
			}
		}
		d.Defs[Name(e.Tag)].Content = Star{Alt{alts}}
	}
	var err error
	for _, e := range elems {
		WalkRefs(e.Content, func(ref Name) {
			if _, ok := d.Defs[ref]; !ok && err == nil {
				err = fmt.Errorf("dtd: element %s references undeclared element %s", e.Tag, ref)
			}
		})
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// add registers a definition, preserving order.
func (d *DTD) add(def *Def) error {
	if _, dup := d.Defs[def.Name]; dup {
		return fmt.Errorf("dtd: duplicate definition of %s", def.Name)
	}
	d.Defs[def.Name] = def
	d.order = append(d.order, def.Name)
	if !def.Text {
		d.ByTag[def.Tag] = def.Name // an element's name is its tag
	}
	return nil
}

// String renders the grammar in the paper's edge notation, one edge per
// line, for debugging and golden tests.
func (d *DTD) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "root %s\n", d.Root)
	for _, n := range d.order {
		def := d.Defs[n]
		if def.Text {
			fmt.Fprintf(&sb, "%s -> String\n", n)
			continue
		}
		fmt.Fprintf(&sb, "%s -> %s[%s]\n", n, def.Tag, def.Content)
	}
	return sb.String()
}

// NameSet is π as a set of names, the form the streaming pruner's
// callers in benchmark/ hand it (DTD.CompileProjection). Everything
// else carries π as a Row over the grammar's symbols.
type NameSet map[Name]struct{}

// NewNameSet builds a set from the given names.
func NewNameSet(names ...Name) NameSet {
	s := make(NameSet, len(names))
	for _, n := range names {
		s[n] = struct{}{}
	}
	return s
}

// Add inserts n.
func (s NameSet) Add(n Name) { s[n] = struct{}{} }
