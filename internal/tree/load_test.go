package tree_test

// Loader tests whose inputs come from packages that import tree.

import (
	"testing"

	"xmlproj/internal/bench"
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
		pruned, _, err := bench.PruneBytes(w, pr)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if d := tree.DiffOracle(pruned); d != "" {
			t.Errorf("%s, pruned to %d bytes: %s", id, len(pruned), d)
		}
	}
}

// TestLoadAllocs: loading an XMark document costs slabs, not nodes — at
// most 20 allocations per 1 000 nodes, where one string per text node and
// attribute value cost 513.
func TestLoadAllocs(t *testing.T) {
	src := bench.NewWorkload(0.01, 42).DocBytes
	d, err := tree.ParseBytes(src)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(5, func() {
		if _, err := tree.ParseBytes(src); err != nil {
			t.Fatal(err)
		}
	})
	if per := got * 1000 / float64(d.NumNodes()); per > 20 {
		t.Errorf("%v allocations to load %d nodes: %.1f per 1 000, want at most 20", got, d.NumNodes(), per)
	}
}

func BenchmarkParseBytes(b *testing.B) {
	src := bench.NewWorkload(0.03, 42).DocBytes
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.ParseBytes(src); err != nil {
			b.Fatal(err)
		}
	}
}
