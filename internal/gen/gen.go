// Package gen generates random documents valid with respect to a DTD.
// It is the test harness' instance generator: property-based tests draw
// random valid documents, prune them with inferred projectors, and check
// Thm. 4.5 / Thm. 4.7 style properties against the query engine.
//
// Defended by: test oracle (the random grammars, documents and queries of the differential tests).
package gen

import (
	"math/rand"
	"strconv"

	"xmlproj/internal/dtd"
	"xmlproj/internal/tree"
)

// Options bounds document generation.
type Options struct {
	// MaxDepth bounds the element nesting depth; beyond it the generator
	// takes minimal expansions. Default 8.
	MaxDepth int
	// MaxRepeat bounds the repetitions generated for * and + (beyond the
	// mandatory one). Default 3.
	MaxRepeat int
}

func (o Options) withDefaults() Options {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 8
	}
	if o.MaxRepeat <= 0 {
		o.MaxRepeat = 3
	}
	return o
}

// Generator draws random valid documents from a DTD.
type Generator struct {
	d    *dtd.DTD
	rng  *rand.Rand
	opts Options
	// minDepth[n] is the minimal element depth needed to close a subtree
	// rooted at n; used to force termination on recursive DTDs.
	minDepth map[dtd.Name]int
	serial   int
}

// New returns a deterministic generator seeded with seed.
func New(d *dtd.DTD, seed int64, opts Options) *Generator {
	g := &Generator{d: d, rng: rand.New(rand.NewSource(seed)), opts: opts.withDefaults()}
	g.computeMinDepths()
	return g
}

// Document generates one random valid document.
func (g *Generator) Document() *tree.Document {
	b := tree.NewBuilder(0)
	g.element(b, g.d.Root, 0)
	return b.Document()
}

func (g *Generator) element(b *tree.Builder, n dtd.Name, depth int) {
	def := g.d.Defs[n]
	b.Start(def.Tag)
	for i := range def.Atts {
		ad := &def.Atts[i]
		if !ad.Required && g.rng.Intn(2) == 0 {
			continue
		}
		b.Attr(ad.Attr, g.attrValue(ad))
	}
	for _, c := range g.sequence(def.Content, depth) {
		if g.d.Defs[c].Text {
			b.TextString(g.text())
		} else {
			g.element(b, c, depth+1)
		}
	}
	b.EndElement()
}

func (g *Generator) attrValue(ad *dtd.AttDef) string {
	if ad.Fixed != "" {
		return ad.Fixed
	}
	if len(ad.Enum) > 0 {
		return ad.Enum[g.rng.Intn(len(ad.Enum))]
	}
	g.serial++
	switch ad.Type {
	case "ID":
		return "id" + strconv.Itoa(g.serial)
	case "IDREF":
		return "id" + strconv.Itoa(1+g.rng.Intn(g.serial))
	default:
		return words[g.rng.Intn(len(words))] + strconv.Itoa(g.rng.Intn(100))
	}
}

var words = []string{
	"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
	"hotel", "india", "juliet", "kilo", "lima", "Dante", "Boccaccio",
}

func (g *Generator) text() string {
	n := 1 + g.rng.Intn(3)
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += " "
		}
		out += words[g.rng.Intn(len(words))]
	}
	return out
}

// sequence draws a random word of the content-model language. When the
// depth budget is exhausted it takes minimal expansions (empty for
// nullable nodes, cheapest alternative otherwise).
func (g *Generator) sequence(r dtd.Regex, depth int) []dtd.Name {
	tight := depth >= g.opts.MaxDepth
	switch x := r.(type) {
	case dtd.Epsilon, nil:
		return nil
	case dtd.Ref:
		return []dtd.Name{x.Name}
	case dtd.Seq:
		var out []dtd.Name
		for _, it := range x.Items {
			out = append(out, g.sequence(it, depth)...)
		}
		return out
	case dtd.Alt:
		if tight {
			return g.sequence(g.cheapest(x.Items), depth)
		}
		return g.sequence(x.Items[g.rng.Intn(len(x.Items))], depth)
	case dtd.Star:
		if tight {
			return nil
		}
		var out []dtd.Name
		for i := g.rng.Intn(g.opts.MaxRepeat + 1); i > 0; i-- {
			out = append(out, g.sequence(x.Inner, depth)...)
		}
		return out
	case dtd.Plus:
		out := g.sequence(x.Inner, depth)
		if !tight {
			for i := g.rng.Intn(g.opts.MaxRepeat); i > 0; i-- {
				out = append(out, g.sequence(x.Inner, depth)...)
			}
		}
		return out
	case dtd.Opt:
		if tight || g.rng.Intn(2) == 0 {
			return nil
		}
		return g.sequence(x.Inner, depth)
	}
	return nil
}

// cheapest picks the alternative with the smallest minimal depth.
func (g *Generator) cheapest(items []dtd.Regex) dtd.Regex {
	best, bestCost := items[0], 1<<30
	for _, it := range items {
		if c := g.regexMinDepth(it); c < bestCost {
			best, bestCost = it, c
		}
	}
	return best
}

const inf = 1 << 20

// computeMinDepths runs a fixpoint for the minimal closing depth of each
// name.
func (g *Generator) computeMinDepths() {
	g.minDepth = map[dtd.Name]int{}
	for n, def := range g.d.Defs {
		if def.Text {
			g.minDepth[n] = 0
		} else {
			g.minDepth[n] = inf
		}
	}
	for changed := true; changed; {
		changed = false
		for n, def := range g.d.Defs {
			if def.Text {
				continue
			}
			c := 1 + g.regexMinDepth(def.Content)
			if c < g.minDepth[n] {
				g.minDepth[n] = c
				changed = true
			}
		}
	}
}

// regexMinDepth is the minimal element depth of any word of r.
func (g *Generator) regexMinDepth(r dtd.Regex) int {
	switch x := r.(type) {
	case dtd.Epsilon, nil:
		return 0
	case dtd.Ref:
		return g.minDepth[x.Name]
	case dtd.Seq:
		m := 0
		for _, it := range x.Items {
			if c := g.regexMinDepth(it); c > m {
				m = c
			}
		}
		return m
	case dtd.Alt:
		m := inf
		for _, it := range x.Items {
			if c := g.regexMinDepth(it); c < m {
				m = c
			}
		}
		return m
	case dtd.Star, dtd.Opt:
		return 0
	case dtd.Plus:
		return g.regexMinDepth(x.Inner)
	}
	return 0
}
