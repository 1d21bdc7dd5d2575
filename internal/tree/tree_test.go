package tree

import (
	"reflect"
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

// equal reports structural equality of two trees: same kinds, tags, data,
// attributes (ordered) and children. Node IDs are ignored.
func equal(a, b Node) bool {
	if !a.Valid() || !b.Valid() {
		return a.Valid() == b.Valid()
	}
	for k := int32(0); k <= a.rec().end-a.i; k++ { // the sizes agree at k = 0
		x, y := Node{a.d, a.i + k}, Node{b.d, b.i + k}
		if x.rec().end-x.i != y.rec().end-y.i || x.Kind() != y.Kind() || x.Tag() != y.Tag() ||
			x.Data() != y.Data() || x.NumAttrs() != y.NumAttrs() {
			return false
		}
		for i := range x.NumAttrs() {
			if x.AttrAt(i) != y.AttrAt(i) {
				return false
			}
		}
	}
	return true
}

// children lists n's children.
func children(n Node) []Node {
	var out []Node
	for c := n.FirstChild(); c.Valid(); c = c.NextSibling() {
		out = append(out, c)
	}
	return out
}

func TestParseSimple(t *testing.T) {
	d := mustParse(t, `<a><b>hi</b><c x="1"/></a>`)
	r := d.Root()
	kids := children(r)
	if r.Tag() != "a" || len(kids) != 2 {
		t.Fatalf("root = %s with %d children, want a with 2", r.Tag(), len(kids))
	}
	b := kids[0]
	if bk := children(b); b.Tag() != "b" || len(bk) != 1 || bk[0].Kind() != Text || bk[0].Data() != "hi" {
		t.Fatalf("bad <b> subtree: %s", b.Tag())
	}
	if v, ok := kids[1].Attr("x"); !ok || v != "1" {
		t.Fatalf("c@x = %q, %v", v, ok)
	}
}

func TestParseWhitespaceDropped(t *testing.T) {
	d := mustParse(t, "<a>\n  <b/>\n  <c/>\n</a>")
	if n := len(children(d.Root())); n != 2 {
		t.Fatalf("got %d children, want 2 (whitespace-only text dropped)", n)
	}
}

func TestParseMixedContentKeepsText(t *testing.T) {
	d := mustParse(t, "<a>one<b/>two</a>")
	kids := children(d.Root())
	if len(kids) != 3 || kids[0].Data() != "one" || kids[1].Tag() != "b" || kids[2].Data() != "two" {
		t.Fatalf("mixed content parsed wrong: %s", d.XML())
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
		`<a x="p&#13;q">p&#13;q<b>&#13;</b></a>`,
	}
	for _, src := range srcs {
		d := mustParse(t, src)
		out := d.XML()
		d2 := mustParse(t, out)
		if !equal(d.Root(), d2.Root()) {
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

func TestIDsInDocumentOrder(t *testing.T) {
	d := mustParse(t, `<a><b><d/></b><c/></a>`)
	var tags []string
	for i := range int32(d.NumNodes()) {
		if n := d.At(i); int(n.ID()) != int(i) {
			t.Fatalf("node %d has ID %d", i, n.ID())
		}
		tags = append(tags, d.At(i).Tag())
	}
	if want := []string{"a", "b", "d", "c"}; strings.Join(tags, ",") != strings.Join(want, ",") {
		t.Fatalf("table order %v, want %v", tags, want)
	}
}

func TestStringValue(t *testing.T) {
	d := mustParse(t, `<a>one<b>two<c>three</c></b>four</a>`)
	if got := d.Root().StringValue(); got != "onetwothreefour" {
		t.Fatalf("StringValue = %q", got)
	}
	if got := children(d.Root())[1].StringValue(); got != "twothree" {
		t.Fatalf("StringValue(b) = %q", got)
	}
	if got := d.At(4).StringValue(); got != "three" {
		t.Fatalf("StringValue(c) = %q", got)
	}
}

func TestBuilderFixesLinks(t *testing.T) {
	b := NewBuilder(0)
	b.Start("a")
	b.Start("b")
	b.EndElement()
	b.TextString("x")
	b.EndElement()
	d := b.Document()
	a, kids := d.Root(), children(d.Root())
	if len(kids) != 2 || d.ParentAt(kids[0].Index()) != a.Index() || d.ParentAt(kids[1].Index()) != a.Index() || kids[0].NextSibling() != kids[1] || a.LastDescendant() != kids[1] {
		t.Fatalf("links wrong: %s", d.XML())
	}
	if d.ParentAt(a.Index()) != -1 || kids[1].NextSibling().Valid() || kids[0].FirstChild().Valid() {
		t.Fatal("a root, a last child and a leaf have links they should not")
	}
}

func TestSetAttr(t *testing.T) {
	b := NewBuilder(0)
	b.Start("a")
	b.Attr("x", "1")
	b.Attr("x", "2")
	b.Attr("y", "3")
	b.EndElement()
	n := b.Document().Root()
	if v, _ := n.Attr("x"); v != "2" {
		t.Fatalf("x = %q, want 2 (overwrite)", v)
	}
	if n.NumAttrs() != 2 {
		t.Fatalf("%d attrs, want 2", n.NumAttrs())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an attribute after the element's content was accepted")
		}
	}()
	b.Start("c")
	b.TextString("t")
	b.Attr("z", "1")
}

// TestCopyIsARangeCopy: a subtree copied into a store, from a loaded
// document and from the store itself — a constructed element inside a
// constructed element — reads back as its source, with fresh IDs past
// the document's and names, text and values of its own.
func TestCopyIsARangeCopy(t *testing.T) {
	d := mustParse(t, `<r><a k="v">one<b x="1">two</b></a><c/>three</r>`)
	a := children(d.Root())[0]
	s := NewStore(d)
	s.Start("w")
	s.Attr("id", "w1")
	s.Copy(a)
	s.TextString("tail")
	s.EndElement()
	w := s.Document().Root()
	s.Start("v")
	s.Copy(w)
	s.EndElement()
	st := s.Document()
	v := st.At(w.LastDescendant().Index() + 1)
	if got := xmlOf(v); got != `<v><w id="w1"><a k="v">one<b x="1">two</b></a>tail</w></v>` {
		t.Fatalf("copied into a copy: %s", got)
	}
	if w.ID() != NodeID(d.NumNodes()) || v.ID() <= w.LastDescendant().ID() {
		t.Fatalf("store IDs %d and %d do not follow the document's %d nodes", w.ID(), v.ID(), d.NumNodes())
	}
	if got := children(v)[0].StringValue(); got != "onetwotail" {
		t.Fatalf("string-value of the copy: %q", got)
	}
	if !equal(children(w)[0], a) || !equal(children(v)[0], w) {
		t.Fatal("a copy differs from its source")
	}
}

// xmlOf is AppendXML into a string of its own.
func xmlOf(n Node) string {
	var sb strings.Builder
	n.AppendXML(&sb)
	return sb.String()
}

// TestTablesArePointerFree: the node and attribute records hold no
// pointer, string, slice, map, interface or func, so a document's tables
// are memory the collector does not scan. One field of such a type would
// bring back a trace over every node of every load.
func TestTablesArePointerFree(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := range typ.NumField() {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s: the table would be scanned by the collector", path, typ.Kind())
		}
	}
	d := reflect.TypeOf(Document{})
	for _, name := range []string{"nodes", "attrs"} {
		f, ok := d.FieldByName(name)
		if !ok || f.Type.Kind() != reflect.Slice {
			t.Fatalf("Document.%s is not a table", name)
		}
		check(f.Type.Elem().Name(), f.Type.Elem())
	}
	if s := reflect.TypeOf(record{}).Size(); s != 32 {
		t.Errorf("a node record is %d bytes, want 32", s)
	}
	if s := reflect.TypeOf(attrRecord{}).Size(); s != 12 {
		t.Errorf("an attribute record is %d bytes, want 12", s)
	}
}

// TestQuickTextEscapeRoundTrip: any text survives serialise-then-parse
// unchanged, a carriage return included.
func TestQuickTextEscapeRoundTrip(t *testing.T) {
	f := func(s string) bool {
		if !validCharData(s) {
			return true // XML cannot carry arbitrary control bytes
		}
		b := NewBuilder(0)
		b.Start("a")
		b.Attr("v", s)
		b.TextString(s)
		b.EndElement()
		out, err := ParseString(b.Document().XML())
		if err != nil {
			return false
		}
		if v, _ := out.Root().Attr("v"); v != s {
			return false
		}
		kids := children(out.Root())
		if strings.TrimSpace(s) == "" {
			return len(kids) == 0
		}
		return len(kids) == 1 && kids[0].Data() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if !f("p\rq\r\n") {
		t.Fatal(`"p\rq\r\n" does not survive serialise-then-parse`)
	}
}

func validCharData(s string) bool {
	for _, r := range s {
		if r == '�' {
			return false
		}
		// U+FFFE / U+FFFF are no XML characters.
		if r < 0x20 && r != '\t' && r != '\n' && r != '\r' || r == 0xFFFE || r == 0xFFFF {
			return false
		}
	}
	return len(s) > 0
}

func TestEqualIgnoresIDs(t *testing.T) {
	a := mustParse(t, `<a><b/></a>`)
	s := NewStore(a)
	s.Copy(a.Root())
	b := s.Document().Root()
	if b.ID() == a.Root().ID() {
		t.Fatal("a store copy has its source's ID")
	}
	if !equal(a.Root(), b) {
		t.Fatal("equal must ignore IDs")
	}
}

// IndentedXML serialises the document with two-space indentation. Mixed
// content (elements with text children) is left on one line so no
// significant whitespace is introduced.
func (d *Document) IndentedXML() string {
	var sb strings.Builder
	if root := d.Root(); root.Valid() {
		writeIndented(&sb, root, 0)
	}
	sb.WriteString("\n")
	return sb.String()
}

func writeIndented(w *strings.Builder, n Node, depth int) {
	pad := strings.Repeat("  ", depth)
	w.WriteString(pad)
	// Text, and mixed or leaf content, stays on one line.
	inline := n.Kind() == Text || !n.FirstChild().Valid()
	for c := n.FirstChild(); c.Valid() && !inline; c = c.NextSibling() {
		inline = c.Kind() == Text
	}
	if inline {
		writeTree(w, n)
		return
	}
	writeOpenTag(w, n.d, n.rec())
	w.WriteString(">\n")
	for c := n.FirstChild(); c.Valid(); c = c.NextSibling() {
		writeIndented(w, c, depth+1)
		w.WriteString("\n")
	}
	w.WriteString(pad)
	w.WriteString("</")
	w.WriteString(n.Tag())
	w.WriteString(">")
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
	if got := children(children(re.Root())[1])[0].Data(); got != "mixed " {
		t.Fatalf("mixed text changed: %q", got)
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
		`<a x="&#13;">&#13;<b>p&#13;q</b></a>`,
	}
	for _, src := range srcs {
		d := mustParse(t, src)
		out, err := ParseString(d.XML())
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !equal(d.Root(), out.Root()) {
			t.Fatalf("round trip changed %s -> %s", src, out.XML())
		}
	}
}
