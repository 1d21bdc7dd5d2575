package xmark

import (
	"fmt"
	"math/rand"

	"xmlproj/internal/tree"
)

// Cardinalities at scale factor 1.0, following xmlgen (a factor-1
// document is roughly 100 MB).
const (
	baseCategories     = 1000
	baseItems          = 21750
	baseOpenAuctions   = 12000
	baseClosedAuctions = 9750
	basePersons        = 25500
)

// regionShares splits the items across the six regions, matching the
// generator's skew (Europe and North America dominate).
var regionShares = []struct {
	name  string
	share float64
}{
	{"africa", 0.05},
	{"asia", 0.10},
	{"australia", 0.10},
	{"europe", 0.30},
	{"namerica", 0.40},
	{"samerica", 0.05},
}

// bytesAtFactor1 is the size of a factor-1 document, to size a
// document's tables from.
const bytesAtFactor1 = 68 << 20

// Generator produces XMark auction documents deterministically.
type Generator struct {
	rng *rand.Rand

	nCategories, nItems, nOpen, nClosed, nPersons int
	size                                          int

	b   *tree.Builder // where the document is built
	buf []byte        // the sentence being drawn
}

// NewGenerator returns a generator at the given scale factor, seeded
// deterministically (same factor + seed → byte-identical document).
func NewGenerator(factor float64, seed int64) *Generator {
	atLeast := func(n int) int {
		if n < 1 {
			return 1
		}
		return n
	}
	return &Generator{
		rng:         rand.New(rand.NewSource(seed)),
		nCategories: atLeast(int(baseCategories * factor)),
		nItems:      atLeast(int(baseItems * factor)),
		nOpen:       atLeast(int(baseOpenAuctions * factor)),
		nClosed:     atLeast(int(baseClosedAuctions * factor)),
		nPersons:    atLeast(int(basePersons * factor)),
		size:        int(bytesAtFactor1 * factor),
	}
}

// Document generates the whole auction site. Nodes are built in document
// order as their content is drawn; the order of the draws fixes the
// document a factor and a seed give (TestGeneratorPinned).
func (g *Generator) Document() *tree.Document {
	g.b = tree.NewBuilder(g.size)
	g.b.Start("site")
	g.regions()
	g.categories()
	g.catgraph()
	g.people()
	g.openAuctions()
	g.closedAuctions()
	g.b.EndElement()
	return g.b.Document()
}

func (g *Generator) categories() {
	g.b.Start("categories")
	for i := 0; i < g.nCategories; i++ {
		g.b.Start("category")
		g.b.Attr("id", fmt.Sprintf("category%d", i))
		g.nameEl()
		g.description()
		g.b.EndElement()
	}
	g.b.EndElement()
}

func (g *Generator) catgraph() {
	g.b.Start("catgraph")
	for i := 0; i < g.nCategories; i++ {
		g.b.Start("edge")
		g.b.Attr("from", fmt.Sprintf("category%d", g.rng.Intn(g.nCategories)))
		g.b.Attr("to", fmt.Sprintf("category%d", g.rng.Intn(g.nCategories)))
		g.b.EndElement()
	}
	g.b.EndElement()
}

func (g *Generator) regions() {
	g.b.Start("regions")
	itemID := 0
	remaining := g.nItems
	for i, r := range regionShares {
		n := int(float64(g.nItems) * r.share)
		if i == len(regionShares)-1 {
			n = remaining
		}
		if n > remaining {
			n = remaining
		}
		remaining -= n
		g.b.Start(r.name)
		for j := 0; j < n; j++ {
			g.item(itemID)
			itemID++
		}
		g.b.EndElement()
	}
	g.b.EndElement()
}

func (g *Generator) item(id int) {
	// Whether an item is featured, an attribute, is drawn after its first
	// six children: they are built aside and copied in behind the tag.
	out := g.b
	g.b = tree.NewBuilder(2048)
	g.pcdata("location", g.country())
	g.pcdata("quantity", fmt.Sprintf("%d", 1+g.rng.Intn(5)))
	g.nameEl()
	g.pcdata("payment", g.payment())
	g.description()
	g.pcdata("shipping", "Will ship internationally, See description for charges")
	head := g.b.Document()
	g.b = out
	g.b.Start("item")
	g.b.Attr("id", fmt.Sprintf("item%d", id))
	if g.rng.Intn(10) == 0 {
		g.b.Attr("featured", "yes")
	}
	for c := head.Root(); c.Valid(); c = c.NextSibling() {
		g.b.Copy(c)
	}
	for n := 1 + g.rng.Intn(3); n > 0; n-- {
		g.ref("incategory", "category", "category%d", g.nCategories)
	}
	g.b.Start("mailbox")
	for n := g.rng.Intn(3); n > 0; n-- {
		g.b.Start("mail")
		g.pcdata("from", g.personName()+" mailto:"+g.email())
		g.pcdata("to", g.personName()+" mailto:"+g.email())
		g.pcdata("date", g.date())
		g.textEl()
		g.b.EndElement()
	}
	g.b.EndElement()
	g.b.EndElement()
}

func (g *Generator) people() {
	g.b.Start("people")
	for i := 0; i < g.nPersons; i++ {
		g.b.Start("person")
		g.b.Attr("id", fmt.Sprintf("person%d", i))
		g.pcdata("name", g.personName())
		g.pcdata("emailaddress", "mailto:"+g.email())
		if g.rng.Intn(2) == 0 {
			g.pcdata("phone", fmt.Sprintf("+%d (%d) %d", 1+g.rng.Intn(99), g.rng.Intn(999), g.rng.Intn(99999999)))
		}
		if g.rng.Intn(2) == 0 {
			g.b.Start("address")
			g.pcdata("street", fmt.Sprintf("%d %s St", 1+g.rng.Intn(99), g.word()))
			g.pcdata("city", g.word())
			g.pcdata("country", g.country())
			g.pcdata("zipcode", fmt.Sprintf("%d", g.rng.Intn(99999)))
			g.b.EndElement()
		}
		if g.rng.Intn(2) == 0 {
			g.pcdata("homepage", "http://www."+g.word()+".com/~"+g.word())
		}
		if g.rng.Intn(4) != 0 {
			g.pcdata("creditcard", fmt.Sprintf("%d %d %d %d", 1000+g.rng.Intn(9000), 1000+g.rng.Intn(9000), 1000+g.rng.Intn(9000), 1000+g.rng.Intn(9000)))
		}
		if g.rng.Intn(2) == 0 {
			g.profile()
		}
		if g.rng.Intn(2) == 0 {
			g.b.Start("watches")
			for n := g.rng.Intn(4); n > 0; n-- {
				g.ref("watch", "open_auction", "open_auction%d", g.nOpen)
			}
			g.b.EndElement()
		}
		g.b.EndElement()
	}
	g.b.EndElement()
}

func (g *Generator) profile() {
	g.b.Start("profile")
	g.b.Attr("income", fmt.Sprintf("%d.%02d", 9876+g.rng.Intn(90000), g.rng.Intn(100)))
	for n := g.rng.Intn(4); n > 0; n-- {
		g.ref("interest", "category", "category%d", g.nCategories)
	}
	if g.rng.Intn(2) == 0 {
		g.pcdata("education", pick(g.rng, educations))
	}
	if g.rng.Intn(2) == 0 {
		g.pcdata("gender", pick(g.rng, []string{"male", "female"}))
	}
	g.pcdata("business", pick(g.rng, []string{"Yes", "No"}))
	if g.rng.Intn(2) == 0 {
		g.pcdata("age", fmt.Sprintf("%d", 18+g.rng.Intn(60)))
	}
	g.b.EndElement()
}

func (g *Generator) openAuctions() {
	g.b.Start("open_auctions")
	for i := 0; i < g.nOpen; i++ {
		g.b.Start("open_auction")
		g.b.Attr("id", fmt.Sprintf("open_auction%d", i))
		g.money("initial")
		if g.rng.Intn(2) == 0 {
			g.money("reserve")
		}
		for n := g.rng.Intn(5); n > 0; n-- {
			person := fmt.Sprintf("person%d", g.rng.Intn(g.nPersons)) // drawn first, written third
			g.b.Start("bidder")
			g.pcdata("date", g.date())
			g.pcdata("time", g.time())
			g.b.Start("personref")
			g.b.Attr("person", person)
			g.b.EndElement()
			g.money("increase")
			g.b.EndElement()
		}
		g.money("current")
		if g.rng.Intn(2) == 0 {
			g.pcdata("privacy", pick(g.rng, []string{"Yes", "No"}))
		}
		g.ref("itemref", "item", "item%d", g.nItems)
		g.ref("seller", "person", "person%d", g.nPersons)
		g.annotation()
		g.pcdata("quantity", fmt.Sprintf("%d", 1+g.rng.Intn(5)))
		g.pcdata("type", pick(g.rng, []string{"Regular", "Featured", "Dutch"}))
		g.b.Start("interval")
		g.pcdata("start", g.date())
		g.pcdata("end", g.date())
		g.b.EndElement()
		g.b.EndElement()
	}
	g.b.EndElement()
}

func (g *Generator) closedAuctions() {
	g.b.Start("closed_auctions")
	for i := 0; i < g.nClosed; i++ {
		g.b.Start("closed_auction")
		g.ref("seller", "person", "person%d", g.nPersons)
		g.ref("buyer", "person", "person%d", g.nPersons)
		g.ref("itemref", "item", "item%d", g.nItems)
		g.money("price")
		g.pcdata("date", g.date())
		g.pcdata("quantity", fmt.Sprintf("%d", 1+g.rng.Intn(5)))
		g.pcdata("type", pick(g.rng, []string{"Regular", "Featured", "Dutch"}))
		if g.rng.Intn(4) != 0 {
			g.annotation()
		}
		g.b.EndElement()
	}
	g.b.EndElement()
}

// ref is an empty element whose one attribute refers to one of n things.
func (g *Generator) ref(tag, attr, format string, n int) {
	g.b.Start(tag)
	g.b.Attr(attr, fmt.Sprintf(format, g.rng.Intn(n)))
	g.b.EndElement()
}

func (g *Generator) annotation() {
	g.b.Start("annotation")
	g.ref("author", "person", "person%d", g.nPersons)
	if g.rng.Intn(4) != 0 {
		g.description()
	}
	g.pcdata("happiness", fmt.Sprintf("%d", 1+g.rng.Intn(10)))
	g.b.EndElement()
}

// description is the size-dominating mixed-content subtree.
func (g *Generator) description() {
	g.b.Start("description")
	if g.rng.Intn(10) < 7 {
		g.textEl()
	} else {
		g.parlist(0)
	}
	g.b.EndElement()
}

func (g *Generator) parlist(depth int) {
	g.b.Start("parlist")
	for n := 1 + g.rng.Intn(3); n > 0; n-- {
		g.b.Start("listitem")
		if depth < 2 && g.rng.Intn(5) == 0 {
			g.parlist(depth + 1)
		} else {
			g.textEl()
		}
		g.b.EndElement()
	}
	g.b.EndElement()
}

// textEl produces a mixed-content text element: sentences of word-list
// prose interleaved with bold/keyword/emph wrappers.
func (g *Generator) textEl() {
	g.b.Start("text")
	pieces := 2 + g.rng.Intn(4)
	for i := 0; i < pieces; i++ {
		g.b.Text(g.sentence(8 + g.rng.Intn(18)))
		if g.rng.Intn(3) != 0 {
			g.b.Start(pick(g.rng, []string{"bold", "keyword", "emph"}))
			g.b.Text(g.sentence(1 + g.rng.Intn(3)))
			g.b.EndElement()
		}
	}
	g.b.EndElement()
}

// sentence draws words words into the generator's buffer, which holds
// them until the next sentence is drawn.
func (g *Generator) sentence(words int) []byte {
	g.buf = g.buf[:0]
	for i := 0; i < words; i++ {
		if i > 0 {
			g.buf = append(g.buf, ' ')
		}
		g.buf = append(g.buf, g.word()...)
	}
	g.buf = append(g.buf, ' ')
	return g.buf
}

// pcdata is an element of simple content.
func (g *Generator) pcdata(tag, content string) {
	g.b.Start(tag)
	g.b.TextString(content)
	g.b.EndElement()
}

func (g *Generator) nameEl() {
	g.pcdata("name", g.word()+" "+g.word())
}

func (g *Generator) money(tag string) {
	g.pcdata(tag, fmt.Sprintf("%d.%02d", g.rng.Intn(300), g.rng.Intn(100)))
}

func (g *Generator) date() string {
	return fmt.Sprintf("%02d/%02d/%d", 1+g.rng.Intn(12), 1+g.rng.Intn(28), 1998+g.rng.Intn(4))
}

func (g *Generator) time() string {
	return fmt.Sprintf("%02d:%02d:%02d", g.rng.Intn(24), g.rng.Intn(60), g.rng.Intn(60))
}

func (g *Generator) word() string { return pick(g.rng, words) }

func (g *Generator) personName() string {
	return pick(g.rng, firstNames) + " " + pick(g.rng, lastNames)
}

func (g *Generator) email() string {
	return pick(g.rng, lastNames) + "@" + g.word() + ".com"
}

func (g *Generator) country() string {
	if g.rng.Intn(4) == 0 {
		return "United States"
	}
	return pick(g.rng, countries)
}

func (g *Generator) payment() string {
	opts := []string{"Creditcard", "Money order", "Personal Check", "Cash"}
	n := 1 + g.rng.Intn(len(opts))
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += ", "
		}
		out += opts[(i+g.rng.Intn(len(opts)))%len(opts)]
	}
	return out
}

func pick(r *rand.Rand, xs []string) string { return xs[r.Intn(len(xs))] }

// The word list echoes xmlgen's Shakespearean flavour.
var words = []string{
	"gold", "silver", "crown", "duke", "sword", "castle", "honest", "noble",
	"promise", "kingdom", "forest", "river", "shadow", "winter", "summer",
	"love", "fortune", "battle", "honour", "virtue", "treason", "mercy",
	"grace", "sorrow", "wisdom", "folly", "journey", "garden", "tempest",
	"whisper", "thunder", "silence", "memory", "promise", "breath", "flame",
	"harbor", "voyage", "anchor", "compass", "lantern", "scroll", "quill",
	"velvet", "marble", "copper", "ivory", "amber", "ember", "frost",
	"meadow", "orchard", "valley", "summit", "hollow", "brook", "glade",
	"falcon", "raven", "sparrow", "stallion", "serpent", "lion", "wolf",
}

var firstNames = []string{
	"Ada", "Edgar", "Umit", "Ioana", "Carlo", "Kim", "Dario", "Giuseppe",
	"Veronique", "Jerome", "Mehmet", "Sandra", "Pavel", "Lucia", "Marko",
}

var lastNames = []string{
	"Benz", "Codd", "Astrahan", "Wong", "Selinger", "Gray", "Stone",
	"Lorie", "Chamberlin", "Boyce", "Traiger", "Putzolu", "Blasgen",
}

var countries = []string{
	"Italy", "France", "Germany", "Japan", "Brazil", "Kenya", "Australia",
	"Canada", "Spain", "Norway", "Chile", "India", "Korea",
}

var educations = []string{
	"High School", "College", "Graduate School", "Other",
}
