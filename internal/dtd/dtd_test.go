package dtd

import (
	"strings"
	"testing"
)

const bookDTD = `
<!-- a small bibliography -->
<!ELEMENT bib (book*)>
<!ELEMENT book (title, author+, year?)>
<!ATTLIST book isbn CDATA #REQUIRED
               lang (en|fr|it) "en">
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT year (#PCDATA)>
`

func mustDTD(t *testing.T, src, root string) *DTD {
	t.Helper()
	d, err := ParseString(src, root)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	return d
}

func TestParseBookDTD(t *testing.T) {
	d := mustDTD(t, bookDTD, "")
	if d.Root != "bib" {
		t.Fatalf("root = %s, want bib (first declared)", d.Root)
	}
	book := d.Defs["book"]
	if book == nil || book.Tag != "book" {
		t.Fatalf("missing book def: %+v", book)
	}
	if got := book.Content.String(); got != "(title, author+, year?)" {
		t.Fatalf("book content = %s", got)
	}
	// PCDATA elements got a text name.
	if td := d.Defs[TextName("title")]; td == nil || !td.Text {
		t.Fatalf("title text name missing: %+v", td)
	}
	// Attributes.
	isbn := book.AttDef("isbn")
	if isbn == nil || !isbn.Required || isbn.Type != "CDATA" {
		t.Fatalf("isbn attdef wrong: %+v", isbn)
	}
	lang := book.AttDef("lang")
	if lang == nil || lang.Type != "ENUM" || len(lang.Enum) != 3 || !lang.HasDefault || lang.Default != "en" {
		t.Fatalf("lang attdef wrong: %+v", lang)
	}
	if isbn.Name != AttrName("book", "isbn") {
		t.Fatalf("derived attr name = %s", isbn.Name)
	}
}

func TestParseExplicitRoot(t *testing.T) {
	d := mustDTD(t, bookDTD, "book")
	if d.Root != "book" {
		t.Fatalf("root = %s, want book", d.Root)
	}
	if _, err := ParseString(bookDTD, "nosuch"); err == nil {
		t.Fatal("undeclared root must be an error")
	}
}

func TestParseMixedContent(t *testing.T) {
	d := mustDTD(t, `<!ELEMENT text (#PCDATA | bold | keyword)*>
<!ELEMENT bold (#PCDATA)>
<!ELEMENT keyword (#PCDATA)>`, "text")
	txt := d.Defs["text"]
	names := regexNames(txt.Content)
	for _, want := range []Name{TextName("text"), "bold", "keyword"} {
		if !names[want] {
			t.Fatalf("mixed content misses %s: %v", want, names)
		}
	}
	if _, ok := txt.Content.(Star); !ok {
		t.Fatalf("mixed content should be starred: %T", txt.Content)
	}
}

func TestParseEmptyAndAny(t *testing.T) {
	d := mustDTD(t, `<!ELEMENT r (e, w)>
<!ELEMENT e EMPTY>
<!ELEMENT w ANY>`, "r")
	if _, ok := d.Defs["e"].Content.(Epsilon); !ok {
		t.Fatalf("EMPTY content should be Epsilon: %T", d.Defs["e"].Content)
	}
	wNames := regexNames(d.Defs["w"].Content)
	for _, want := range []Name{"r", "e", "w", TextName("w")} {
		if !wNames[want] {
			t.Fatalf("ANY content misses %s: %v", want, wNames)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`<!ELEMENT a (b)>`, // b undeclared
		`<!ELEMENT a (#PCDATA)><!ELEMENT a (#PCDATA)>`, // duplicate
		`<!ELEMENT a (b,>`,               // syntax
		`<!ATTLIST a x CDATA #REQUIRED>`, // ATTLIST for undeclared element
		``,                               // empty
	}
	for _, src := range cases {
		if _, err := ParseString(src, ""); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", src)
		}
	}
}

func TestParseSkipsEntityAndComments(t *testing.T) {
	d := mustDTD(t, `<!-- c --> <!ENTITY amp "&#38;"> <!ELEMENT a EMPTY>`, "")
	if d.Root != "a" {
		t.Fatalf("root = %s", d.Root)
	}
}

func TestReachability(t *testing.T) {
	d := mustDTD(t, bookDTD, "")
	s := d.Symbols()
	kids := s.Content.Row(sym(t, s, "book")).Clone()
	kids.Or(s.Atts.Row(sym(t, s, "book")))
	for _, want := range []Name{"title", "author", "year", AttrName("book", "isbn"), AttrName("book", "lang")} {
		if !kids.Has(sym(t, s, want)) {
			t.Fatalf("children of book miss %s: %s", want, names(s, kids))
		}
	}
	if !s.Parents.Row(sym(t, s, "author")).Has(sym(t, s, "book")) {
		t.Fatal("Parents(author) misses book")
	}
	if p := names(s, s.Parents.Row(sym(t, s, AttrName("book", "isbn")))); p != "book" {
		t.Fatalf("Parents(book@isbn) = %s, want {book}", p)
	}
	desc := s.Descendants.Row(sym(t, s, "bib"))
	if !desc.Has(sym(t, s, TextName("year"))) {
		t.Fatalf("Descendants(bib) misses year text: %s", names(s, desc))
	}
	if desc.Has(sym(t, s, "bib")) {
		t.Fatal("bib is not its own strict descendant in a non-recursive DTD")
	}
	if att := desc.Clone(); func() bool { att.And(s.Attr); return !att.Empty() }() {
		t.Fatalf("the descendant axis reaches attribute names: %s", names(s, att))
	}
	anc := names(s, s.Ancestors.Row(sym(t, s, TextName("author"))))
	if anc != "author bib book" {
		t.Fatalf("Ancestors wrong: %s", anc)
	}
	reach := d.ReachableFromRoot()
	if reach.Len() != s.NumNames() || !reach.Has(sym(t, s, AttrName("book", "lang"))) || !reach.Has(sym(t, s, "bib")) {
		t.Fatalf("ReachableFromRoot = %s, want all %d names", names(s, reach), s.NumNames())
	}
}

func TestProperties(t *testing.T) {
	d := mustDTD(t, bookDTD, "")
	if d.IsRecursive() {
		t.Fatal("book DTD is not recursive")
	}
	if !d.IsStarGuarded() {
		t.Fatal("book DTD is *-guarded (no unions outside stars)")
	}
	if !d.IsParentUnambiguous() {
		t.Fatal("book DTD is parent-unambiguous")
	}

	rec := mustDTD(t, `<!ELEMENT a (a?, b)><!ELEMENT b EMPTY>`, "a")
	if !rec.IsRecursive() {
		t.Fatal("a -> a? is recursive")
	}

	// The paper's §4 counterexample: X → c[Y | Z] is not *-guarded.
	ng := mustDTD(t, `<!ELEMENT c (a | b)><!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>`, "c")
	if ng.IsStarGuarded() {
		t.Fatal("(a | b) without a star guard must not be *-guarded")
	}
	g := mustDTD(t, `<!ELEMENT c (a | b)*><!ELEMENT a (#PCDATA)><!ELEMENT b (#PCDATA)>`, "c")
	if !g.IsStarGuarded() {
		t.Fatal("(a | b)* is *-guarded")
	}

	// The paper's §4.1 example: X → a[Y,Z], Y → b[Z], Z → c[] is
	// parent-ambiguous (Z is both a child and a grandchild of X).
	pa := mustDTD(t, `<!ELEMENT a (b, c)><!ELEMENT b (c)><!ELEMENT c EMPTY>`, "a")
	if pa.IsParentUnambiguous() {
		t.Fatal("a/(b,c) with b/(c) is parent-ambiguous")
	}
}

// TestNullable: a content model's automaton accepts the empty sequence
// exactly when the model is nullable.
func TestNullable(t *testing.T) {
	cases := []struct {
		r    Regex
		want bool
	}{
		{Epsilon{}, true},
		{Ref{"a"}, false},
		{Star{Ref{"a"}}, true},
		{Plus{Ref{"a"}}, false},
		{Plus{Star{Ref{"a"}}}, true},
		{Opt{Ref{"a"}}, true},
		{Seq{[]Regex{Star{Ref{"a"}}, Opt{Ref{"b"}}}}, true},
		{Seq{[]Regex{Star{Ref{"a"}}, Ref{"b"}}}, false},
		{Alt{[]Regex{Ref{"a"}, Epsilon{}}}, true},
		{Alt{[]Regex{Ref{"a"}, Ref{"b"}}}, false},
	}
	for _, c := range cases {
		syms, e := modelOf(t, c.r, "a", "b")
		if got := syms.Matches(e, nil); got != c.want {
			t.Errorf("the automaton of %s accepts the empty sequence: %v, want %v", c.r, got, c.want)
		}
	}
}

func TestDFAMatching(t *testing.T) {
	// (title, author+, year?)
	r := Seq{[]Regex{Ref{"title"}, Plus{Ref{"author"}}, Opt{Ref{"year"}}}}
	syms, e := modelOf(t, r, "title", "author", "year")
	ok := [][]Name{
		{"title", "author"},
		{"title", "author", "author", "year"},
		{"title", "author", "year"},
	}
	bad := [][]Name{
		{},
		{"title"},
		{"author", "title"},
		{"title", "author", "year", "year"},
		{"title", "year"},
	}
	for _, seq := range ok {
		if !syms.Matches(e, seq) {
			t.Errorf("DFA rejects valid %v", seq)
		}
	}
	for _, seq := range bad {
		if syms.Matches(e, seq) {
			t.Errorf("DFA accepts invalid %v", seq)
		}
	}
}

func TestDFAStarAlt(t *testing.T) {
	// (#PCDATA | b | k)* style content.
	r := Star{Alt{[]Regex{Ref{"t"}, Ref{"b"}, Ref{"k"}}}}
	syms, e := modelOf(t, r, "t", "b", "k")
	if !syms.Matches(e, nil) || !syms.Matches(e, []Name{"t", "b", "t", "k", "k"}) {
		t.Fatal("star-alt DFA rejects valid sequences")
	}
	if syms.Matches(e, []Name{"t", "x"}) {
		t.Fatal("star-alt DFA accepts foreign name")
	}
}

// TestNameSetOps: a name set is what NewNameSet and Add put in it, and
// it compiles to the row of the names the grammar defines.
func TestNameSetOps(t *testing.T) {
	a := NewNameSet("x", "y", "x")
	a.Add("y")
	a.Add("z")
	if _, ok := a["z"]; len(a) != 3 || !ok {
		t.Fatalf("set = %v, want {x, y, z}", a)
	}
	d := mustDTD(t, bookDTD, "")
	pi := NewNameSet("bib", "book")
	pi.Add("book@isbn")
	if got := names(d.Symbols(), d.CompileProjection(pi).row); got != "bib book book@isbn" {
		t.Fatalf("compiled = %s", got)
	}
}

// TestNameHelpers: TextName and AttrName spell the derived names, and
// what kind a name is comes from the grammar's masks, not its spelling.
func TestNameHelpers(t *testing.T) {
	if TextName("a") != "a#text" || AttrName("a", "x") != "a@x" {
		t.Fatalf("derived names: %s, %s", TextName("a"), AttrName("a", "x"))
	}
	s := mustDTD(t, bookDTD, "").Symbols()
	for x := int32(0); x < int32(s.NumNames()); x++ {
		n := string(s.Name(x))
		if s.Text.Has(x) != strings.HasSuffix(n, "#text") || s.Attr.Has(x) != strings.Contains(n, "@") {
			t.Fatalf("%s: text %v, attr %v", n, s.Text.Has(x), s.Attr.Has(x))
		}
	}
}

func TestDTDString(t *testing.T) {
	d := mustDTD(t, `<!ELEMENT a (b*)><!ELEMENT b EMPTY>`, "a")
	s := d.String()
	if !strings.Contains(s, "root a") || !strings.Contains(s, "a -> a[") || !strings.Contains(s, "b -> b[()]") {
		t.Fatalf("String output unexpected:\n%s", s)
	}
}

// TestFingerprint: stable, collision-resistant across part boundaries;
// a grammar's own fingerprint covers attribute declarations (which
// String omits) and is shared by structurally identical grammars.
func TestFingerprint(t *testing.T) {
	if Fingerprint("a", "bc") == Fingerprint("ab", "c") {
		t.Fatal("fingerprint collides across part boundaries")
	}
	if Fingerprint("x") != Fingerprint("x") {
		t.Fatal("fingerprint not deterministic")
	}
	const src = `<!ELEMENT a (b*)><!ELEMENT b (#PCDATA)><!ATTLIST b id CDATA #IMPLIED>`
	g1, g2 := MustParseString(src, "a"), MustParseString(src, "a")
	if g1.Fingerprint() != g2.Fingerprint() || g1.Fingerprint() != g1.Fingerprint() {
		t.Fatal("identical grammars fingerprint differently")
	}
	g3 := MustParseString(`<!ELEMENT a (b*)><!ELEMENT b (#PCDATA)><!ATTLIST b id CDATA #REQUIRED>`, "a")
	if g3.String() != g1.String() || g3.Fingerprint() == g1.Fingerprint() {
		t.Fatal("the fingerprint does not see an attribute declaration String omits")
	}
}
