package gen

import (
	"fmt"
	"math/rand"
	"strings"

	"xmlproj/internal/dtd"
)

// DTDOptions bounds random grammar generation.
type DTDOptions struct {
	// Elements is the number of element names. Default 8.
	Elements int
	// AllowRecursion permits back-edges in content models.
	AllowRecursion bool
	// AttrChance is the per-element probability (in percent) of declaring
	// attributes. Default 30.
	AttrChance int
	// TypedAttrs also declares, at the same chance, an enumerated or a
	// #FIXED attribute (the CDATA ones are drawn as without it).
	TypedAttrs bool
}

func (o DTDOptions) withDefaults() DTDOptions {
	if o.Elements <= 0 {
		o.Elements = 8
	}
	if o.AttrChance == 0 {
		o.AttrChance = 30
	}
	return o
}

// RandomDTD generates a random local tree grammar in which every element
// is reachable from the root and every element can close (finite minimal
// expansion), so the document generator always terminates on it.
//
// Without AllowRecursion, content models only reference strictly later
// elements (a DAG), guaranteeing non-recursiveness; with it, back-edges
// are wrapped in ? or * so instances stay finite.
func RandomDTD(seed int64, opts DTDOptions) *dtd.DTD {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	n := opts.Elements
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("e%d", i)
	}

	var sb strings.Builder
	for i, name := range names {
		switch {
		case i == n-1 || rng.Intn(4) == 0:
			// Leaves: text or empty.
			if rng.Intn(3) == 0 {
				fmt.Fprintf(&sb, "<!ELEMENT %s EMPTY>\n", name)
			} else {
				fmt.Fprintf(&sb, "<!ELEMENT %s (#PCDATA)>\n", name)
			}
		default:
			fmt.Fprintf(&sb, "<!ELEMENT %s (%s)>\n", name, randomContent(rng, i, n, opts.AllowRecursion))
		}
		if rng.Intn(100) < opts.AttrChance {
			req := "#IMPLIED"
			if rng.Intn(2) == 0 {
				req = "#REQUIRED"
			}
			fmt.Fprintf(&sb, "<!ATTLIST %s k%d CDATA %s>\n", name, rng.Intn(3), req)
		}
		if opts.TypedAttrs && rng.Intn(100) < opts.AttrChance {
			decl := []string{"(x|y|z) #REQUIRED", "(x|y|z) #IMPLIED", `(x|y|z) "y"`, `CDATA #FIXED "v"`}
			fmt.Fprintf(&sb, "<!ATTLIST %s t %s>\n", name, decl[rng.Intn(len(decl))])
		}
	}
	d, err := dtd.ParseString(sb.String(), "e0")
	if err != nil {
		panic(fmt.Sprintf("gen: RandomDTD produced an invalid grammar: %v\n%s", err, sb.String()))
	}
	return d
}

// randomContent builds a content model for element i. Forward references
// (i+1 … n-1) keep the grammar grounded; optional back-references add
// recursion when allowed.
func randomContent(rng *rand.Rand, i, n int, recursion bool) string {
	forward := func() string { return fmt.Sprintf("e%d", i+1+rng.Intn(n-i-1)) }
	var parts []string
	// Guarantee groundedness: the first particle is a forward reference.
	parts = append(parts, forward()+suffix(rng))
	for extra := rng.Intn(3); extra > 0; extra-- {
		switch {
		case recursion && rng.Intn(3) == 0:
			// A back-edge (possibly self), always skippable.
			opt := "?"
			if rng.Intn(2) == 0 {
				opt = "*"
			}
			parts = append(parts, fmt.Sprintf("e%d%s", rng.Intn(i+1), opt))
		case rng.Intn(3) == 0:
			// A *-guarded union of two forward references.
			parts = append(parts, fmt.Sprintf("(%s | %s)*", forward(), forward()))
		default:
			parts = append(parts, forward()+suffix(rng))
		}
	}
	return strings.Join(parts, ", ")
}

func suffix(rng *rand.Rand) string {
	return []string{"", "?", "*", "+"}[rng.Intn(4)]
}
