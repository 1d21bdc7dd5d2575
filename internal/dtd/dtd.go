// Package dtd implements DTDs as local tree grammars (§2.2 of the paper):
// a distinguished root name X and a set of edges X_i → a_i[r_i] or
// X_i → String, where each r_i is a regular expression over names.
//
// The package parses real DTD syntax (<!ELEMENT …>, <!ATTLIST …>), builds
// the grammar, compiles content models to deterministic automata for
// validation, computes the reachability relation ⇒E and chains, and decides
// the Def. 4.3 properties (*-guarded, non-recursive, parent-unambiguous)
// that govern completeness of the analysis.
package dtd

import (
	"fmt"
	"sort"
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

	// dfa is the compiled content-model automaton (built lazily).
	dfaOnce sync.Once
	dfa     *DFA
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

// Names returns the defined element and text names in declaration order
// (each element's text name right after it).
func (d *DTD) Names() []Name {
	out := make([]Name, len(d.order))
	copy(out, d.order)
	return out
}

// Def returns the edge for name n, or nil if n is not defined.
func (d *DTD) Def(n Name) *Def { return d.Defs[n] }

// ElementName returns the name defining the given element tag.
func (d *DTD) ElementName(tag string) (Name, bool) {
	n, ok := d.ByTag[tag]
	return n, ok
}

// add registers a definition, preserving order.
func (d *DTD) add(def *Def) error {
	if _, dup := d.Defs[def.Name]; dup {
		return fmt.Errorf("dtd: duplicate definition of %s", def.Name)
	}
	d.Defs[def.Name] = def
	d.order = append(d.order, def.Name)
	if !def.Text {
		if _, dup := d.ByTag[def.Tag]; dup {
			return fmt.Errorf("dtd: duplicate element declaration <!ELEMENT %s>", def.Tag)
		}
		d.ByTag[def.Tag] = def.Name
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

// NameSet is a finite set of names. The zero value is not usable; use
// NewNameSet or a composite literal NameSet{}.
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

// Has reports membership.
func (s NameSet) Has(n Name) bool { _, ok := s[n]; return ok }

// Len returns the cardinality.
func (s NameSet) Len() int { return len(s) }

// Empty reports whether the set is empty.
func (s NameSet) Empty() bool { return len(s) == 0 }

// AddAll inserts every element of t and reports whether s grew.
func (s NameSet) AddAll(t NameSet) bool {
	grew := false
	for n := range t {
		if !s.Has(n) {
			s.Add(n)
			grew = true
		}
	}
	return grew
}

// Clone returns a fresh copy of s.
func (s NameSet) Clone() NameSet {
	u := make(NameSet, len(s))
	for n := range s {
		u.Add(n)
	}
	return u
}

// Equal reports set equality.
func (s NameSet) Equal(t NameSet) bool {
	if len(s) != len(t) {
		return false
	}
	for n := range s {
		if !t.Has(n) {
			return false
		}
	}
	return true
}

// Sorted returns the members in lexicographic order.
func (s NameSet) Sorted() []Name {
	out := make([]Name, 0, len(s))
	for n := range s {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the set as {a, b, c} in sorted order.
func (s NameSet) String() string {
	names := s.Sorted()
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = string(n)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
