package index

import (
	"errors"
	"strings"
	"testing"
)

// feedWindows drives a StreamIndexer the way the pipelined pruner does:
// each simulated read appends to the carry, the indexer classifies the
// assembled window, and everything after Consumed carries forward.
// Returned entries are rebased to absolute document offsets.
func feedWindows(t *testing.T, doc string, chunk int, maxTok int) ([]Entry, bool, error) {
	t.Helper()
	si := StreamIndexer{
		MaxTokenSize: maxTok,
		Lookup:       lookupFor("root", "item", "name", "pad", "empty", "deep", "deeper", "deepest", "a", "b"),
	}
	var all []Entry
	var carry []byte
	docPos := 0
	for lo := 0; lo < len(doc) || len(carry) > 0; lo += chunk {
		hi := lo + chunk
		if hi > len(doc) {
			hi = len(doc)
		}
		if lo > len(doc) {
			lo = len(doc)
		}
		data := append(append([]byte(nil), carry...), doc[lo:hi]...)
		w := si.Window(data)
		for _, e := range w.Entries {
			e.Off += docPos
			e.End += docPos
			all = append(all, e)
		}
		if w.Err != nil {
			return all, w.Dead, w.Err
		}
		if w.Dead {
			return all, true, nil
		}
		carry = append(carry[:0], data[w.Consumed:]...)
		docPos += w.Consumed
		if hi == len(doc) {
			break
		}
	}
	return all, false, nil
}

// TestStreamMatchesBuild: window-at-a-time indexing over every chunk
// size — including cuts mid-tag, mid-comment, mid-CDATA and mid-entity —
// yields the exact entry list the batch builder produces.
func TestStreamMatchesBuild(t *testing.T) {
	doc := `<?xml version="1.0"?><!DOCTYPE root [<!ELEMENT root ANY>]>` +
		`<root><item id="1"><name>first &amp; last</name></item>` +
		`<!-- a comment with <tags> inside -->` +
		`<item id="2>x"><![CDATA[not <a> tag]]></item>` +
		`<pad>` + strings.Repeat("x", 100) + `</pad>` +
		`<empty/><deep><deeper><deepest>t</deepest></deeper></deep></root>`
	lookup := lookupFor("root", "item", "name", "pad", "empty", "deep", "deeper", "deepest", "a", "b")
	ref, err := Build([]byte(doc), Options{Workers: 1, ChunkSize: len(doc) + 1, Lookup: lookup, Collapse: 1})
	if err != nil {
		t.Fatalf("reference Build: %v", err)
	}
	want := append([]Entry(nil), ref.Entries...)
	ref.Release()
	for i := range want {
		want[i].Match = 0 // the streaming indexer does not pair tags
	}

	for _, chunk := range []int{1, 2, 3, 5, 7, 11, 16, 33, 64, 100, 255, len(doc), len(doc) + 7} {
		got, dead, werr := feedWindows(t, doc, chunk, 0)
		if werr != nil || dead {
			t.Fatalf("chunk %d: err=%v dead=%v", chunk, werr, dead)
		}
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d entries, want %d\ngot:  %+v\nwant: %+v", chunk, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("chunk %d entry %d: %+v, want %+v", chunk, i, got[i], want[i])
			}
		}
	}
}

// TestStreamDeadConditions: only the constructs the serial scanner is
// guaranteed to reject mark the stream dead — a bare '<' inside a start
// tag and an end tag at depth zero. Multiple roots, which the batch
// builder rejects as ErrStructure, are NOT dead here: the serial
// scanner accepts the bytes and errors (or not) at a higher layer, so
// the spine must see them.
func TestStreamDeadConditions(t *testing.T) {
	dead := []string{
		`<a><b <c></a>`,
		`<a x="<"></a>`,
		`</a>`,
		`<a></a></b>`,
	}
	for _, doc := range dead {
		for _, chunk := range []int{1, 4, 1 << 10} {
			_, isDead, err := feedWindows(t, doc, chunk, 0)
			if err != nil {
				t.Fatalf("%q chunk %d: unexpected err %v", doc, chunk, err)
			}
			if !isDead {
				t.Errorf("%q chunk %d: expected dead stream", doc, chunk)
			}
		}
	}
	alive := []string{
		`<a></a><b></b>`, // two roots: serial layer decides
		`<a/><b/>`,
		`<a>text with > and "<!" like bytes</a>`,
		`<a><!-- < inside comment --><![CDATA[< raw]]></a>`,
	}
	for _, doc := range alive {
		for _, chunk := range []int{1, 4, 1 << 10} {
			ents, isDead, err := feedWindows(t, doc, chunk, 0)
			if err != nil || isDead {
				t.Errorf("%q chunk %d: err=%v dead=%v", doc, chunk, err, isDead)
			}
			if len(ents) == 0 {
				t.Errorf("%q chunk %d: no entries", doc, chunk)
			}
		}
	}
}

// TestStreamDeadLatches: once dead, later windows return immediately.
func TestStreamDeadLatches(t *testing.T) {
	si := StreamIndexer{Lookup: lookupFor("a")}
	w := si.Window([]byte(`</a>`))
	if !w.Dead {
		t.Fatal("end tag at depth 0 should be dead")
	}
	w = si.Window([]byte(`<a></a>`))
	if !w.Dead || len(w.Entries) != 0 {
		t.Fatalf("dead indexer revived: %+v", w)
	}
}

// TestStreamTokenTooLong mirrors the batch builder's cap: an oversized
// construct or inter-construct text run fails with ErrTokenTooLong even
// when it spans many windows.
func TestStreamTokenTooLong(t *testing.T) {
	cases := []string{
		`<a x="` + strings.Repeat("v", 200) + `">x</a>`,
		`<a>` + strings.Repeat("t", 200) + `</a>`,
		`<a><!--` + strings.Repeat("c", 200) + `--></a>`,
	}
	for _, doc := range cases {
		for _, chunk := range []int{7, 64, 1 << 10} {
			_, _, err := feedWindows(t, doc, chunk, 64)
			if !errors.Is(err, ErrTokenTooLong) {
				t.Errorf("%.20q chunk %d: got %v, want ErrTokenTooLong", doc, chunk, err)
			}
		}
		if _, _, err := feedWindows(t, doc, 16, 1<<20); err != nil {
			t.Errorf("%.20q generous cap: %v", doc, err)
		}
	}
}

// TestStreamDepthCarries: depth persists across windows so entries in
// later windows keep absolute depths.
func TestStreamDepthCarries(t *testing.T) {
	doc := `<a><b><c>t</c></b></a>`
	ents, dead, err := feedWindows(t, doc, 4, 0)
	if err != nil || dead {
		t.Fatalf("err=%v dead=%v", err, dead)
	}
	ref, err := Build([]byte(doc), Options{Workers: 1, Collapse: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	if len(ents) != len(ref.Entries) {
		t.Fatalf("%d entries, want %d", len(ents), len(ref.Entries))
	}
	for i := range ents {
		if ents[i].Depth != ref.Entries[i].Depth {
			t.Errorf("entry %d: depth %d, want %d", i, ents[i].Depth, ref.Entries[i].Depth)
		}
	}
}
