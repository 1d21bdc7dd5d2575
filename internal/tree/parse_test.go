package tree

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// differentialSeeds are well-formed and malformed documents chosen to
// sit on the rules the loader shares with encoding/xml.
var differentialSeeds = []string{
	// internal/prune's malformed corpus.
	``,
	`   `,
	`<bib>`,
	`<bib><book isbn="1"></bib>`,
	`</bib>`,
	`<bib>&bogus;</bib>`,
	`<bib>&amp</bib>`,
	`<bib>a & b</bib>`,
	`<bib>]]></bib>`,
	`<bib><![CDATA[x</bib>`,
	`<bib><![CDAT[x]]></bib>`,
	`<bib><book isbn=1/></bib>`,
	`<bib><book isbn></book></bib>`,
	`<bib><book isbn="1/></bib>`,
	`<bib><!-- comment --></bib`,
	`<bib><!- no --></bib>`,
	`<bib><!-- -- --></bib>`,
	`<bib><book/><9tag/></bib>`,
	`<?xml version="2.0"?><bib/>`,
	`<?xml version="1.0" encoding="utf-16"?><bib/>`,
	"<bib>\x01</bib>",
	"<bib>\xff\xfe</bib>",
	`<bib><book isbn="` + "\x02" + `"/></bib>`,
	"\xff\xfe<\x00a\x00/\x00>\x00",
	// Names: prefixes, edge colons, two colons, non-ASCII.
	`<p:a xmlns:p="u"><p:b p:x="1" y="2"/></p:a>`,
	`<p:a></q:a>`,
	`<a></p:a>`,
	`<:a></:a>`,
	`<a:></a:>`,
	`<a:b:c/>`,
	`<a b:c:d="1"/>`,
	`<é ü="1">ß</é>`,
	"<a\u00a0/>",
	// Namespace declarations, dropped by name.
	`<a xmlns="u" xmlns:p="v" p:xmlns="w" x="1"><b xmlns=""/></a>`,
	`<a xmlns:p="xmlns" p:x="1"/>`,
	// Character data: chunk boundaries, whitespace-only chunks, CDATA.
	`<a>one<b/>two</a>`,
	`<a>x<![CDATA[<y>&]]>z</a>`,
	`<a><![CDATA[]]></a>`,
	`<a><![CDATA[ ]]>x</a>`,
	`<a>a<!--c--> <!--d-->b</a>`,
	`<a> <!--c-->b<?pi?> </a>`,
	`<a>a<![CDATA[ ]]>b</a>`,
	`<a> <b/> </a>`,
	"<a>\u00a0</a>",
	"<a>\u2028<!--c-->\u00a0\u2029</a>",
	"<a>\u00a0x\u2028</a>",
	"<a>\ufeff</a>",
	`<a>&#65;&#x42;&lt;&gt;&amp;&apos;&quot;</a>`,
	`<a>&#32;</a>`,
	`<a>&#xD800;</a>`,
	`<a>&#0;</a>`,
	`<a>&#x110000;</a>`,
	`<a x="&#65;&lt;'" y='"&quot;'/>`,
	"<a>l1\r\nl2\rl3\n</a>",
	"<a x=\"l1\r\nl2\tl3\"/>",
	`<a>]]</a>`,
	`<a>]>]] ></a>`,
	// The hand-over between the tokeniser's one-loop path and the code
	// behind it: a chunk that stops being plain part of the way through.
	`<a>plain&amp;plain</a>`,
	`<a>plain]]></a>`,
	`<a>plain]]</a>`,
	"<a>a\rb</a>",
	`<a>a>b</a>`,
	`<a x="plain&amp;plain" y='a>b' z="a]]>b"/>`,
	"<a>0123456é</a>",
	"<a>01234567é</a>",
	"<a>012345678é</a>",
	"<a>0123456\xc3</a>",
	`<a>plain<!--c-->plain</a>`,
	`<a>plain<!--c-->pl&#97;in</a>`,
	`<a>plain<![CDATA[<]]></a>`,
	`<ab></ab ><ab></a>`,
	`<a><ab></a></ab>`,
	// Attribute syntax.
	`<a x = "1"  y	=
'2'/>`,
	`<a x="1"y="2"/>`,
	`<a x="1" x="2"/>`,
	`<a x="<"/>`,
	`<a x='1"/>`,
	`<a / >`,
	// Document level.
	`text<a/>`,
	`<a/>text`,
	`&amp;<a/>`,
	`<a/>&bogus;`,
	`<a/><b/>`,
	`<a/><a>`,
	`<a><b></b>`,
	`<a></a></a>`,
	"\ufeff<a/>",
	`<?xml version="1.0" encoding="UTF-8"?><!DOCTYPE a [<!ELEMENT a (#PCDATA)> <!-- > -->]><a/>`,
	`<!DOCTYPE a [<!ENTITY e "v">]><a>&e;</a>`,
	`<?xml?><a/>`,
	`<?9?><a/>`,
	`<a><?xml version="1.1"?></a>`,
	`<a><!></a>`,
	`<a><!x</a>`,
	`<a`,
	`<`,
	`<a><`,
	`<a></`,
	`<a></a`,
}

// TestParseDifferential runs the seed corpus of FuzzParseDifferential as
// a plain test, so every `go test` holds the loader to the oracle on it.
func TestParseDifferential(t *testing.T) {
	for _, src := range differentialSeeds {
		if d := diffOracle([]byte(src)); d != "" {
			t.Errorf("%q: %s", src, d)
		}
	}
}

// FuzzParseDifferential holds the loader to the encoding/xml loop it
// replaced: the same verdict on every input and, on accept, the same
// tree — structure, node IDs, links and serialisation.
func FuzzParseDifferential(f *testing.F) {
	for _, src := range differentialSeeds {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		if d := diffOracle(src); d != "" {
			t.Fatalf("%q: %s", src, d)
		}
	})
}

// TestParseIgnoresTokenCap: a load holds the whole document, so no
// single token of it is too long — scan.DefaultMaxTokenSize (8 MiB)
// bounds a sliding buffer, and there is none.
func TestParseIgnoresTokenCap(t *testing.T) {
	text := strings.Repeat("0123456789abcdef", 9<<20/16)
	for name, parse := range map[string]func(string) (*Document, error){
		"ParseString": ParseString,
		"Parse":       func(s string) (*Document, error) { return Parse(strings.NewReader(s)) },
	} {
		d, err := parse(`<a x="` + text + `">` + text + `</a>`)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v, _ := d.Root.Attr("x"); len(v) != len(text) || len(d.Root.Children) != 1 || len(d.Root.Children[0].Data) != len(text) {
			t.Fatalf("%s: 9 MiB text node or attribute value came back short", name)
		}
	}
}

// allocatedBy reports the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestParseManyChunksLinear: a text node cut into 10 000 chunks is
// joined in one buffer. Joining by string concatenation, as the old loop
// did, copies the run once per chunk: 3 GB for this input, 4 000 × its
// size, where the bound below allows 16 ×.
func TestParseManyChunksLinear(t *testing.T) {
	const chunks = 10000
	section := "<![CDATA[" + strings.Repeat("x", 64) + "]]>"
	src := []byte("<a>" + strings.Repeat(section, chunks) + "</a>")
	var d *Document
	var err error
	got := allocatedBy(func() { d, err = ParseBytes(src) })
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Root.Children) != 1 || len(d.Root.Children[0].Data) != 64*chunks {
		t.Fatalf("the %d chunks did not join into one text node", chunks)
	}
	if limit := uint64(16 * len(src)); got > limit {
		t.Errorf("loading %d bytes in %d chunks allocated %d bytes, want at most %d", len(src), chunks, got, limit)
	}
}

// TestParseAllocations pins what the slabs buy. The document has 4 001
// nodes and 3 000 strings to keep (1 000 text nodes, 2 000 attribute
// values), and a load may allocate 100 objects: slabs, the name table,
// the walk's scratch. One heap object per node, child list, attribute
// list and string, as before the slabs, would be 14 000.
func TestParseAllocations(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<list>")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, `<item id="i%d" class="c"><name>n%d</name><empty/></item>`, i, i)
	}
	sb.WriteString("</list>")
	src := []byte(sb.String())
	d, err := ParseBytes(src)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumNodes() != 4001 {
		t.Fatalf("%d nodes, want 4001", d.NumNodes())
	}
	got := testing.AllocsPerRun(5, func() {
		if _, err := ParseBytes(src); err != nil {
			t.Fatal(err)
		}
	})
	if got > 100 {
		t.Errorf("%v allocations per load, want at most 100", got)
	}
}

// TestParseStringsOutliveTheirSlab: strings are cut from a slab that
// later strings are appended to, and from a new one when it is full; each
// must still read what it was given when the load is over — short ones
// that share slabs, and ones long enough to get a string of their own
// between them.
func TestParseStringsOutliveTheirSlab(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("<r>")
	want := make([]string, 3000)
	for i := range want {
		want[i] = strings.Repeat(fmt.Sprint(i, " "), 1+i%40)
		if i%500 == 499 {
			want[i] = strings.Repeat("long ", 5000+i)
		}
		fmt.Fprintf(&sb, `<e v="%s">%s</e>`, want[i], want[i])
	}
	sb.WriteString("</r>")
	d := mustParse(t, sb.String())
	for i, e := range d.Root.Children {
		if v, _ := e.Attr("v"); v != want[i] || e.Children[0].Data != want[i] {
			t.Fatalf("element %d reads %.40q and %.40q, want %.40q", i, v, e.Children[0].Data, want[i])
		}
	}
}

// TestParseListsHaveNoSpareCapacity: child and attribute lists are cut
// from shared slabs, so growing one must move it, not overwrite the
// list cut after it.
func TestParseListsHaveNoSpareCapacity(t *testing.T) {
	d := mustParse(t, `<r><a x="1"><k/></a><b y="2"><l/></b></r>`)
	a, b := d.Root.Children[0], d.Root.Children[1]
	a.Append(NewElement("extra"))
	a.SetAttr("z", "3")
	if got := d.XML(); got != `<r><a x="1" z="3"><k/><extra/></a><b y="2"><l/></b></r>` {
		t.Fatalf("growing <a>'s lists gave %s", got)
	}
	if b.Children[0].Tag != "l" || b.Attrs[0].Name != "y" {
		t.Fatalf("growing <a>'s lists reached into <b>'s: %+v", b)
	}
}
