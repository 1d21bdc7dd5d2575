package dtd

import "strings"

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

// walkRefs calls f for every occurrence of a name in r.
func walkRefs(r Regex, f func(Name)) {
	switch x := r.(type) {
	case Ref:
		f(x.Name)
	case Seq:
		for _, it := range x.Items {
			walkRefs(it, f)
		}
	case Alt:
		for _, it := range x.Items {
			walkRefs(it, f)
		}
	case Star:
		walkRefs(x.Inner, f)
	case Plus:
		walkRefs(x.Inner, f)
	case Opt:
		walkRefs(x.Inner, f)
	}
}

// Nullable reports whether r matches the empty sequence.
func Nullable(r Regex) bool {
	switch x := r.(type) {
	case Epsilon, nil:
		return true
	case Ref:
		return false
	case Seq:
		for _, it := range x.Items {
			if !Nullable(it) {
				return false
			}
		}
		return true
	case Alt:
		for _, it := range x.Items {
			if Nullable(it) {
				return true
			}
		}
		return false
	case Star, Opt:
		return true
	case Plus:
		return Nullable(x.Inner)
	}
	return false
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
