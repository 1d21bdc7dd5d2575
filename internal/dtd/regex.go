package dtd

import (
	"sort"
	"strings"
)

// Regex is a regular expression over grammar names, used as a content
// model r in edges X → a[r].
type Regex interface {
	// String renders the regex in DTD-ish syntax with names in place of
	// tags.
	String() string
	regexNode()
}

// Epsilon matches the empty sequence (EMPTY content).
type Epsilon struct{}

// Ref matches one occurrence of a name.
type Ref struct{ Name Name }

// Seq matches the concatenation of its items (a, b, c).
type Seq struct{ Items []Regex }

// Alt matches any one of its items (a | b | c).
type Alt struct{ Items []Regex }

// Star matches zero or more repetitions (r*).
type Star struct{ Inner Regex }

// Plus matches one or more repetitions (r+).
type Plus struct{ Inner Regex }

// Opt matches zero or one occurrence (r?).
type Opt struct{ Inner Regex }

func (Epsilon) regexNode() {}
func (Ref) regexNode()     {}
func (Seq) regexNode()     {}
func (Alt) regexNode()     {}
func (Star) regexNode()    {}
func (Plus) regexNode()    {}
func (Opt) regexNode()     {}

func (Epsilon) String() string { return "()" }
func (r Ref) String() string   { return string(r.Name) }

func (r Seq) String() string {
	parts := make([]string, len(r.Items))
	for i, it := range r.Items {
		parts[i] = it.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func (r Alt) String() string {
	parts := make([]string, len(r.Items))
	for i, it := range r.Items {
		parts[i] = it.String()
	}
	return "(" + strings.Join(parts, " | ") + ")"
}

func (r Star) String() string { return r.Inner.String() + "*" }
func (r Plus) String() string { return r.Inner.String() + "+" }
func (r Opt) String() string  { return r.Inner.String() + "?" }

// WalkRefs calls f for every occurrence of a name in r.
func WalkRefs(r Regex, f func(Name)) {
	switch x := r.(type) {
	case Ref:
		f(x.Name)
	case Seq:
		for _, it := range x.Items {
			WalkRefs(it, f)
		}
	case Alt:
		for _, it := range x.Items {
			WalkRefs(it, f)
		}
	case Star:
		WalkRefs(x.Inner, f)
	case Plus:
		WalkRefs(x.Inner, f)
	case Opt:
		WalkRefs(x.Inner, f)
	}
}

// StarUnion is the content model (t | a | b | …)* over the given element
// names in sorted order, t being tag's text name when text is set: the
// over-approximation a merged XML Schema declaration and a dataguide
// declare. Nothing to repeat is EMPTY, and one element name c alone is
// c*, as the DTD parser reads "(c)*".
func StarUnion(tag string, text bool, names map[string]bool) Regex {
	var alts []Regex
	for n := range names {
		alts = append(alts, Ref{Name(n)})
	}
	sort.Slice(alts, func(i, j int) bool { return alts[i].(Ref).Name < alts[j].(Ref).Name })
	switch {
	case text:
		return Star{Alt{append([]Regex{Ref{TextName(Name(tag))}}, alts...)}}
	case len(alts) == 0:
		return Epsilon{}
	case len(alts) == 1:
		return Star{alts[0]}
	}
	return Star{Alt{alts}}
}

// ImpliedCDATA declares each of the attributes CDATA #IMPLIED, in
// sorted order: the attribute list of a merged XML Schema declaration and
// of a dataguide element.
func ImpliedCDATA[V any](attrs map[string]V) []AttDef {
	var atts []AttDef
	for a := range attrs {
		atts = append(atts, AttDef{Attr: a, Type: "CDATA"})
	}
	sort.Slice(atts, func(i, j int) bool { return atts[i].Attr < atts[j].Attr })
	return atts
}

// containsAlt reports whether r contains a union node anywhere.
func containsAlt(r Regex) bool {
	switch x := r.(type) {
	case Alt:
		return true
	case Seq:
		for _, it := range x.Items {
			if containsAlt(it) {
				return true
			}
		}
	case Star:
		return containsAlt(x.Inner)
	case Plus:
		return containsAlt(x.Inner)
	case Opt:
		return containsAlt(x.Inner)
	}
	return false
}
