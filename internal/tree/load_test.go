package tree_test

// Loader tests whose inputs come from packages that import tree.

import (
	"bytes"
	"testing"

	"xmlproj/internal/bench"
	"xmlproj/internal/prune"
	"xmlproj/internal/tree"
)

// q10 names the benchmark's answer_* query set (benchmark/queries.go).
var q10 = []string{"QM01", "QM06", "QM07", "QM14", "QM20", "QP09", "QP11", "QP13", "QP19", "QP21"}

// TestParseMatchesOracleOnXMark: on an xmarkgen document and on what
// each Q10 projector leaves of it — the two inputs xqrun loads — the
// loader builds the tree the encoding/xml loop built.
func TestParseMatchesOracleOnXMark(t *testing.T) {
	w := bench.NewWorkload(0.01, 42)
	if d := tree.DiffOracle(w.DocBytes); d != "" {
		t.Fatalf("document: %s", d)
	}
	for _, id := range q10 {
		q, ok := bench.QueryByID(id)
		if !ok {
			t.Fatalf("no query %s", id)
		}
		pr, err := w.Projector(q)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var pruned bytes.Buffer
		if _, err := prune.StreamBytes(&pruned, w.DocBytes, w.D, nil, prune.StreamOptions{Projection: pr.Compiled()}); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if d := tree.DiffOracle(pruned.Bytes()); d != "" {
			t.Errorf("%s, pruned to %d bytes: %s", id, pruned.Len(), d)
		}
	}
}

// TestLoadAllocs: loading an XMark document costs its tables, strings
// and names — at most 150 allocations, the same at 0.68 MB and 2 MB. One
// string per text node and attribute value cost 513 per 1 000 nodes, the
// slabs that followed 10.
func TestLoadAllocs(t *testing.T) {
	for _, factor := range []float64{0.01, 0.03} {
		src := bench.NewWorkload(factor, 42).DocBytes
		got := testing.AllocsPerRun(3, func() {
			if _, err := tree.ParseBytes(src); err != nil {
				t.Fatal(err)
			}
		})
		if got > 150 {
			t.Errorf("factor %v: %v allocations to load %d bytes, want at most 150", factor, got, len(src))
		}
	}
}

// BenchmarkParseBytes loads d3 as the benchmark writes it, on one line,
// and indented: whitespace between the tags, which the one-line document
// never has, goes through the text path and is dropped.
func BenchmarkParseBytes(b *testing.B) {
	src := bench.NewWorkload(0.03, 42).DocBytes
	doc, err := tree.ParseBytes(src)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		src  []byte
	}{{"d3", src}, {"d3-indented", []byte(doc.IndentedXML())}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tree.ParseBytes(c.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
