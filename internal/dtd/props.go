package dtd

// This file decides the Def. 4.3 grammar properties governing
// completeness. The reachability relation ⇒E (Def. 2.5) they are stated
// over is the bit rows of Symbols.

// ReachableFromRoot returns the ⇒E*-image of {Root}: every name that can
// occur in a valid document, as a row over Symbols() (shared: do not
// modify).
func (d *DTD) ReachableFromRoot() Row { return d.Symbols().Reachable }

// IsRecursive reports whether some name satisfies Y ⇒E⁺ Y (Def. 4.3(2)
// fails). Text and attribute names are leaves, so only an element name
// can be its own descendant.
func (d *DTD) IsRecursive() bool {
	s := d.Symbols()
	for e := int32(0); e < int32(s.Len()); e++ {
		if s.Descendants.Row(e).Has(e) {
			return true
		}
	}
	return false
}

// IsStarGuarded reports Def. 4.3(1): for each edge the content model is a
// product r₁,…,rₙ and every rᵢ containing a union is of the form (r)* or
// (r)+.
func (d *DTD) IsStarGuarded() bool {
	for _, n := range d.order {
		def := d.Defs[n]
		if def.Text {
			continue
		}
		if !starGuarded(def.Content) {
			return false
		}
	}
	return true
}

func starGuarded(r Regex) bool {
	// View r as a product of factors (a lone factor is a 1-product).
	var factors []Regex
	if s, ok := r.(Seq); ok {
		factors = s.Items
	} else {
		factors = []Regex{r}
	}
	for _, f := range factors {
		if !containsAlt(f) {
			continue
		}
		switch f.(type) {
		case Star, Plus:
			// Guarded; anything goes inside.
		default:
			return false
		}
	}
	return true
}

// IsParentUnambiguous reports Def. 4.3(3): whenever cYZ is a chain from
// the root, no chain cYc′Z with c′ ≠ ε exists. Equivalently: for every
// root-reachable Y with Y ⇒E Z, Z is not reachable from Y through a
// non-empty intermediate chain. An attribute name Y@a hangs under Y
// alone, so it is reached a second way only if Y lies under itself, and
// then one of Y's content names already is: content names decide.
func (d *DTD) IsParentUnambiguous() bool {
	s := d.Symbols()
	for y := s.Reachable.Next(0); y >= 0 && y < int32(s.Len()); y = s.Reachable.Next(y + 1) {
		direct := s.Content.Row(y)
		twoPlus := s.Descendants.Image(direct)
		twoPlus.And(direct)
		if !twoPlus.Empty() {
			return false
		}
	}
	return true
}
