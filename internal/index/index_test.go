package index

import (
	"errors"
	"strings"
	"testing"
)

// lookupFor builds a Lookup over a fixed name→symbol table.
func lookupFor(names ...string) func([]byte) (int32, bool) {
	m := make(map[string]int32, len(names))
	for i, n := range names {
		m[n] = int32(i)
	}
	return func(local []byte) (int32, bool) {
		sym, ok := m[string(local)]
		return sym, ok
	}
}

func TestBuildClassifiesConstructs(t *testing.T) {
	doc := `<?xml version="1.0"?><!DOCTYPE a [<!ELEMENT a (b)*>]>` +
		`<a><!-- c --><b x="1>2">t</b><![CDATA[<raw>]]><b/><?pi d?></a>`
	ix, err := Build([]byte(doc), Options{Workers: 1, Lookup: lookupFor("a", "b"), Collapse: 1})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer ix.Release()

	wantKinds := []Kind{PI, Directive, Start, Comment, Start, End, CDATA, StartEmpty, PI, End}
	if len(ix.Entries) != len(wantKinds) {
		t.Fatalf("got %d entries, want %d: %+v", len(ix.Entries), len(wantKinds), ix.Entries)
	}
	for i, k := range wantKinds {
		if ix.Entries[i].Kind != k {
			t.Errorf("entry %d: kind %d, want %d (%+v)", i, ix.Entries[i].Kind, k, ix.Entries[i])
		}
	}
	if ix.RootStart != 2 || ix.RootEnd != len(wantKinds)-1 {
		t.Errorf("root entries %d..%d, want 2..%d", ix.RootStart, ix.RootEnd, len(wantKinds)-1)
	}
	if ix.Entries[2].Match != int32(ix.RootEnd) || ix.Entries[4].Match != 5 {
		t.Errorf("start entries do not record their end entries: %+v", ix.Entries)
	}
	// Depths: the prolog and the root's own tags at 0, everything
	// inside <a> at 1.
	for i, e := range ix.Entries {
		want := int32(1)
		if i < 3 || i == len(wantKinds)-1 {
			want = 0
		}
		if e.Depth != want {
			t.Errorf("entry %d (kind %d): depth %d, want %d", i, e.Kind, e.Depth, want)
		}
	}
	// Symbols: the <b> start and </b> end resolve, the quoted ">" inside
	// the attribute does not end the tag early.
	if ix.Entries[4].Sym != 1 || ix.Entries[5].Sym != 1 || ix.Entries[7].Sym != 1 {
		t.Errorf("b symbols: %+v", ix.Entries)
	}
	bStart := ix.Entries[4]
	if got := doc[bStart.Off:bStart.End]; got != `<b x="1>2">` {
		t.Errorf("b extent: %q", got)
	}
}

// TestBuildChunkSizeSweep checks that every chunk size — including ones
// that cut mid-tag, mid-comment, mid-CDATA and mid-name — produces the
// same index as a single-chunk build, at every collapse threshold: none
// (1), some elements (40, 160), everything but the root (0 = default).
func TestBuildChunkSizeSweep(t *testing.T) {
	doc := `<root><item id="1"><name>first &amp; last</name></item>` +
		`<!-- a comment with <tags> inside -->` +
		`<item id="2"><![CDATA[not <a> tag]]></item>` +
		`<pad>` + strings.Repeat("x", 100) + `</pad>` +
		`<empty/><deep><deeper><deepest>t</deepest></deeper></deep></root>`
	lookup := lookupFor("root", "item", "name", "pad", "empty", "deep", "deeper", "deepest")

	for _, collapse := range []int{1, 40, 160, 0} {
		ref, err := Build([]byte(doc), Options{Workers: 1, ChunkSize: len(doc) + 1, Lookup: lookup, Collapse: collapse})
		if err != nil {
			t.Fatalf("reference Build: %v", err)
		}
		want := append([]Entry(nil), ref.Entries...)
		wantRS, wantRE := ref.RootStart, ref.RootEnd
		ref.Release()

		for _, cs := range []int{1, 2, 3, 5, 7, 11, 16, 33, 64, 100, 255} {
			for _, workers := range []int{1, 2, 4, 8} {
				ix, err := Build([]byte(doc), Options{Workers: workers, ChunkSize: cs, Lookup: lookup, Collapse: collapse})
				if err != nil {
					t.Fatalf("collapse %d chunk %d workers %d: %v", collapse, cs, workers, err)
				}
				if len(ix.Entries) != len(want) {
					t.Fatalf("collapse %d chunk %d workers %d: %d entries, want %d", collapse, cs, workers, len(ix.Entries), len(want))
				}
				for i := range want {
					if ix.Entries[i] != want[i] {
						t.Errorf("collapse %d chunk %d workers %d entry %d: %+v, want %+v", collapse, cs, workers, i, ix.Entries[i], want[i])
					}
				}
				if ix.RootStart != wantRS || ix.RootEnd != wantRE {
					t.Errorf("collapse %d chunk %d workers %d: root %d..%d, want %d..%d", collapse, cs, workers, ix.RootStart, ix.RootEnd, wantRS, wantRE)
				}
				ix.Release()
			}
		}
	}
}

// TestBuildCollapse: an element no larger than the threshold becomes
// one Element entry spanning both its tags; larger ones keep their
// Start and End entries, paired through Match; the root is never folded.
func TestBuildCollapse(t *testing.T) {
	small := `<item id="1"><name>n</name><note/></item>`
	doc := `<root><big>` + small + small + strings.Repeat("x", 100) + `</big>` + small + `</root>`
	lookup := lookupFor("root", "big", "item", "name", "note")

	ix, err := Build([]byte(doc), Options{Workers: 1, Lookup: lookup, Collapse: len(small)})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Release()
	wantKinds := []Kind{Start, Start, Element, Element, End, Element, End}
	if len(ix.Entries) != len(wantKinds) {
		t.Fatalf("got %d entries, want %d: %+v", len(ix.Entries), len(wantKinds), ix.Entries)
	}
	for i, e := range ix.Entries {
		if e.Kind != wantKinds[i] {
			t.Errorf("entry %d: kind %d, want %d", i, e.Kind, wantKinds[i])
		}
		if e.Kind == Element {
			if got := doc[e.Off:e.End]; got != small {
				t.Errorf("entry %d spans %q, want %q", i, got, small)
			}
			if e.Sym != 2 {
				t.Errorf("entry %d: sym %d, want item's", i, e.Sym)
			}
		}
	}
	if ix.Entries[0].Match != 6 || ix.Entries[1].Match != 4 {
		t.Errorf("matches: root %d, big %d; want 6, 4", ix.Entries[0].Match, ix.Entries[1].Match)
	}
	if ix.Entries[2].Depth != 2 || ix.Entries[5].Depth != 1 {
		t.Errorf("element depths %d, %d; want 2, 1", ix.Entries[2].Depth, ix.Entries[5].Depth)
	}

	// A whole document under the default threshold keeps its root tags.
	tiny, err := Build([]byte(doc), Options{Workers: 2, ChunkSize: 16, Lookup: lookup})
	if err != nil {
		t.Fatal(err)
	}
	defer tiny.Release()
	if len(tiny.Entries) != 4 || tiny.RootStart != 0 || tiny.RootEnd != 3 ||
		tiny.Entries[1].Kind != Element || tiny.Entries[2].Kind != Element {
		t.Errorf("default threshold: %+v", tiny.Entries)
	}
}

func TestBuildMaxTokenSize(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"long start tag", `<root><e a="` + strings.Repeat("v", 100) + `">x</e></root>`},
		{"long text run", `<root>` + strings.Repeat("t", 200) + `</root>`},
		{"long comment", `<root><!--` + strings.Repeat("c", 150) + `--></root>`},
		{"long cdata", `<root><![CDATA[` + strings.Repeat("d", 150) + `]]></root>`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Build([]byte(tc.doc), Options{Workers: 2, ChunkSize: 16, MaxTokenSize: 64}); !errors.Is(err, ErrTokenTooLong) {
				t.Fatalf("got %v, want ErrTokenTooLong", err)
			}
			// The same document indexes fine with a generous cap.
			ix, err := Build([]byte(tc.doc), Options{Workers: 2, ChunkSize: 16, MaxTokenSize: 1 << 20})
			if err != nil {
				t.Fatalf("generous cap: %v", err)
			}
			ix.Release()
		})
	}
}

func TestBuildStructureErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"two roots", `<a></a><b></b>`},
		{"empty-element root", `<a/>`},
		{"unbalanced end", `</a>`},
		{"unterminated element", `<a><b></b>`},
		{"unterminated comment", `<a><!-- no end</a>`},
		{"unterminated cdata", `<a><![CDATA[ no end</a>`},
		{"unterminated tag", `<a><b `},
		{"angle in attribute", `<a><b x="<"></b></a>`},
		{"no root", `   `},
		{"text only", `just text`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, cs := range []int{3, 1 << 20} {
				if _, err := Build([]byte(tc.doc), Options{Workers: 2, ChunkSize: cs}); !errors.Is(err, ErrStructure) {
					t.Fatalf("chunk %d: got %v, want ErrStructure", cs, err)
				}
			}
		})
	}
}

func TestBuildNoLookupLeavesSymsUnset(t *testing.T) {
	ix, err := Build([]byte(`<a><b>t</b></a>`), Options{Workers: 1, Collapse: 1})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer ix.Release()
	for i, e := range ix.Entries {
		if e.Sym != -1 {
			t.Errorf("entry %d: sym %d, want -1", i, e.Sym)
		}
	}
}
