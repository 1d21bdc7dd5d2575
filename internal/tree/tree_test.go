package tree

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, s string) *Document {
	t.Helper()
	d, err := ParseString(s)
	if err != nil {
		t.Fatalf("ParseString(%q): %v", s, err)
	}
	return d
}

func TestParseSimple(t *testing.T) {
	d := mustParse(t, `<a><b>hi</b><c x="1"/></a>`)
	r := d.Root
	if r.Tag != "a" || len(r.Children) != 2 {
		t.Fatalf("root = %s with %d children, want a with 2", r.Tag, len(r.Children))
	}
	b := r.Children[0]
	if b.Tag != "b" || len(b.Children) != 1 || b.Children[0].Kind != Text || b.Children[0].Data != "hi" {
		t.Fatalf("bad <b> subtree: %+v", b)
	}
	c := r.Children[1]
	if v, ok := c.Attr("x"); !ok || v != "1" {
		t.Fatalf("c@x = %q, %v", v, ok)
	}
}

func TestParseWhitespaceDropped(t *testing.T) {
	d := mustParse(t, "<a>\n  <b/>\n  <c/>\n</a>")
	if len(d.Root.Children) != 2 {
		t.Fatalf("got %d children, want 2 (whitespace-only text dropped)", len(d.Root.Children))
	}
}

func TestParseMixedContentKeepsText(t *testing.T) {
	d := mustParse(t, "<a>one<b/>two</a>")
	kids := d.Root.Children
	if len(kids) != 3 || kids[0].Data != "one" || kids[1].Tag != "b" || kids[2].Data != "two" {
		t.Fatalf("mixed content parsed wrong: %+v", kids)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"", "<a>", "<a></b>", "<a/><b/>", "just text",
	} {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", src)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	srcs := []string{
		`<a><b>hi</b><c x="1"/></a>`,
		`<a>text &amp; more <b/> tail</a>`,
		`<r><x y="a&quot;b"/></r>`,
		`<a>one&lt;two</a>`,
	}
	for _, src := range srcs {
		d := mustParse(t, src)
		out := d.XML()
		d2 := mustParse(t, out)
		if !Equal(d.Root, d2.Root) {
			t.Errorf("round trip changed tree:\n in: %s\nout: %s", src, out)
		}
	}
}

func TestSerializedSizeMatchesXML(t *testing.T) {
	d := mustParse(t, `<a><b>hello</b><c x="1"/></a>`)
	if got, want := d.SerializedSize(), int64(len(d.XML())); got != want {
		t.Fatalf("SerializedSize = %d, XML length = %d", got, want)
	}
}

func TestRenumberDocumentOrder(t *testing.T) {
	d := mustParse(t, `<a><b><d/></b><c/></a>`)
	var ids []NodeID
	var tags []string
	d.Walk(func(n *Node) bool {
		ids = append(ids, n.ID)
		tags = append(tags, n.Tag)
		return true
	})
	for i, id := range ids {
		if int(id) != i {
			t.Fatalf("ids not in document order: %v (%v)", ids, tags)
		}
	}
	if want := []string{"a", "b", "d", "c"}; strings.Join(tags, ",") != strings.Join(want, ",") {
		t.Fatalf("walk order %v, want %v", tags, want)
	}
}

func TestStringValue(t *testing.T) {
	d := mustParse(t, `<a>one<b>two<c>three</c></b>four</a>`)
	if got := d.Root.StringValue(); got != "onetwothreefour" {
		t.Fatalf("StringValue = %q", got)
	}
	if got := d.Root.Children[1].StringValue(); got != "twothree" {
		t.Fatalf("StringValue(b) = %q", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	d := mustParse(t, `<a><b>hi</b></a>`)
	c := d.Clone()
	c.Root.Children[0].Children[0].Data = "changed"
	if d.Root.Children[0].Children[0].Data != "hi" {
		t.Fatal("Clone shares text nodes with original")
	}
	if !Equal(d.Root, mustParse(t, `<a><b>hi</b></a>`).Root) {
		t.Fatal("original mutated")
	}
	if c.Root.Children[0].Parent != c.Root {
		t.Fatal("clone parent links broken")
	}
}

func TestIsProjectionOf(t *testing.T) {
	d := mustParse(t, `<a><b><d/></b><c/></a>`)
	full := d.Clone()
	// Remove <c/>.
	p1 := d.Clone()
	p1.Root.Children = p1.Root.Children[:1]
	if !IsProjectionOf(p1.Root, full.Root) {
		t.Fatal("dropping a subtree should be a projection")
	}
	// Remove <d/> under <b>.
	p2 := d.Clone()
	p2.Root.Children[0].Children = nil
	if !IsProjectionOf(p2.Root, full.Root) {
		t.Fatal("dropping a nested subtree should be a projection")
	}
	// Relabelling is not a projection.
	p3 := d.Clone()
	p3.Root.Children[0].Tag = "z"
	if IsProjectionOf(p3.Root, full.Root) {
		t.Fatal("relabelled tree must not be a projection")
	}
	// The full tree is a projection of itself.
	if !IsProjectionOf(full.Root, full.Root) {
		t.Fatal("tree must be a projection of itself")
	}
	// But not vice versa once something is dropped.
	if IsProjectionOf(full.Root, p1.Root) {
		t.Fatal("projection order must not be symmetric here")
	}
}

func TestByID(t *testing.T) {
	d := mustParse(t, `<a><b/><c/></a>`)
	n := d.ByID(2)
	if n == nil || n.Tag != "c" {
		t.Fatalf("ByID(2) = %+v, want <c>", n)
	}
	if d.ByID(99) != nil {
		t.Fatal("ByID(99) should be nil")
	}
}

func TestAppendFixesLinks(t *testing.T) {
	a := NewElement("a")
	b := NewElement("b")
	c := NewText("x")
	a.Append(b)
	a.Append(c)
	if b.Parent != a || c.Parent != a || b.Index != 0 || c.Index != 1 {
		t.Fatalf("links wrong: b(%v,%d) c(%v,%d)", b.Parent == a, b.Index, c.Parent == a, c.Index)
	}
}

func TestSetAttr(t *testing.T) {
	n := NewElement("a")
	n.SetAttr("x", "1")
	n.SetAttr("x", "2")
	n.SetAttr("y", "3")
	if v, _ := n.Attr("x"); v != "2" {
		t.Fatalf("x = %q, want 2 (overwrite)", v)
	}
	if len(n.Attrs) != 2 {
		t.Fatalf("%d attrs, want 2", len(n.Attrs))
	}
}

// escapeRoundTrip is a quick property: any text survives
// serialise-then-parse unchanged.
func TestQuickTextEscapeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		if !validCharData(s) {
			return true // XML cannot carry arbitrary control bytes
		}
		doc := NewDocument(NewElement("a", NewText(s)))
		out, err := ParseString(doc.XML())
		if err != nil {
			return false
		}
		if strings.TrimSpace(s) == "" {
			return len(out.Root.Children) == 0
		}
		return len(out.Root.Children) == 1 && out.Root.Children[0].Data == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func validCharData(s string) bool {
	for _, r := range s {
		if r == '�' {
			return false
		}
		// A '\r' comes back as '\n', and U+FFFE / U+FFFF are no XML
		// characters: neither round-trips, by the rules.
		if r < 0x20 && r != '\t' && r != '\n' || r == 0xFFFE || r == 0xFFFF {
			return false
		}
	}
	return len(s) > 0
}

func TestEqualIgnoresIDs(t *testing.T) {
	a := mustParse(t, `<a><b/></a>`)
	b := mustParse(t, `<a><b/></a>`)
	b.Root.ID = 42
	if !Equal(a.Root, b.Root) {
		t.Fatal("Equal must ignore IDs")
	}
}

func TestIndentedXML(t *testing.T) {
	d := mustParse(t, `<a><b><c/></b><d>mixed <e/> text</d></a>`)
	out := d.IndentedXML()
	want := `<a>
  <b>
    <c/>
  </b>
  <d>mixed <e/> text</d>
</a>
`
	if out != want {
		t.Fatalf("IndentedXML:\n%s\nwant:\n%s", out, want)
	}
	// Indented output re-parses to an equivalent tree (mixed content kept
	// inline, so no whitespace was invented inside it).
	re := mustParse(t, out)
	if re.Root.Children[1].Children[0].Data != "mixed " {
		t.Fatalf("mixed text changed: %q", re.Root.Children[1].Children[0].Data)
	}
}

// Round-trip property at the document level: serialise-and-parse is the
// identity on whitespace-normalised trees.
func TestQuickDocumentRoundTrip(t *testing.T) {
	srcs := []string{
		`<a/>`,
		`<a x="1" y="&lt;&amp;&quot;"/>`,
		`<a><b>t1</b>mid<c><d>deep</d></c>tail</a>`,
		`<a>&amp;escaped&lt;</a>`,
	}
	for _, src := range srcs {
		d := mustParse(t, src)
		out, err := ParseString(d.XML())
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !Equal(d.Root, out.Root) {
			t.Fatalf("round trip changed %s -> %s", src, out.XML())
		}
	}
}
