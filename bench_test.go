package xmlproj_test

// Benchmarks regenerating the paper's evaluation (§6):
//
//   BenchmarkTable1      — Table 1: per query, pruned size (size% metric),
//                          speed-up (speedx) and memory gain (memx);
//                          ns/op is the load+query time on the pruned doc.
//   BenchmarkFigure4     — Figure 4: load+query time per query, original
//                          vs pruned series (ns/op).
//   BenchmarkFigure5     — Figure 5: memory per query, original vs pruned
//                          series (B/op with -benchmem, plus MBalloc).
//   BenchmarkPruningLinear, BenchmarkPruneMemory, BenchmarkStaticAnalysis
//                        — the §6 overhead claims: prune time linear in
//                          document size with depth-bounded memory;
//                          static analysis always negligible.
//   BenchmarkHeuristicRewrite — the §5 for/if rewriting heuristic.
//   BenchmarkBaselineComparison — precision and pruning work vs the
//                          path-based baseline of [14].
//   BenchmarkQueryBunch  — the §5 multi-query scenario: one union
//                          projector for the whole workload.
//
// The default scale is XMark factor 0.01 (~1 MB); the paper used 56 MB.
// Shapes (who wins, by what factor) are the reproduction target;
// cmd/xbench re-runs everything at arbitrary scale.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"xmlproj/internal/bench"
	"xmlproj/internal/core"
	"xmlproj/internal/prune"
	"xmlproj/internal/xmark"
	"xmlproj/internal/xquery"
)

const benchFactor = 0.01

var (
	wlOnce sync.Once
	wl     *bench.Workload
)

func workload() *bench.Workload {
	wlOnce.Do(func() { wl = bench.NewWorkload(benchFactor, 42) })
	return wl
}

type prepared struct {
	q           bench.QuerySpec
	prunedBytes []byte
	row         bench.Row
}

var (
	prepMu sync.Mutex
	preps  = map[string]*prepared{}
)

// prepare runs the full pipeline once per query and caches the pruned
// document and the one-shot Table 1 row.
func prepare(b *testing.B, id string) *prepared {
	b.Helper()
	prepMu.Lock()
	defer prepMu.Unlock()
	if p, ok := preps[id]; ok {
		return p
	}
	w := workload()
	q, ok := bench.QueryByID(id)
	if !ok {
		b.Fatalf("unknown query %s", id)
	}
	row, err := bench.RunQuery(w, q)
	if err != nil {
		b.Fatalf("%s: %v", id, err)
	}
	pr, err := w.Projector(q)
	if err != nil {
		b.Fatalf("%s: %v", id, err)
	}
	prunedBytes, err := pruneBytes(w, pr)
	if err != nil {
		b.Fatalf("%s: %v", id, err)
	}
	p := &prepared{q: q, prunedBytes: prunedBytes, row: row}
	preps[id] = p
	return p
}

func allIDs() []string {
	qs := bench.AllQueries()
	ids := make([]string, len(qs))
	for i, q := range qs {
		ids[i] = q.ID
	}
	return ids
}

// BenchmarkTable1 regenerates Table 1: one sub-benchmark per query,
// timing the load+query run on the pruned document and reporting the
// pruned size percentage, the speed-up and the memory gain as metrics.
func BenchmarkTable1(b *testing.B) {
	for _, id := range allIDs() {
		b.Run(id, func(b *testing.B) {
			p := prepare(b, id)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bench.MeasureRun(p.q, p.prunedBytes); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(p.row.SizePercent, "size%")
			b.ReportMetric(p.row.Speedup, "speedx")
			b.ReportMetric(p.row.MemRatio, "memx")
		})
	}
}

// BenchmarkFigure4 regenerates Figure 4: load+query wall time per query,
// on the original and the pruned document (two series).
func BenchmarkFigure4(b *testing.B) {
	for _, id := range allIDs() {
		p := func(b *testing.B) *prepared { return prepare(b, id) }
		b.Run(id+"/original", func(b *testing.B) {
			pp := p(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bench.MeasureRun(pp.q, workload().DocBytes); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(id+"/pruned", func(b *testing.B) {
			pp := p(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bench.MeasureRun(pp.q, pp.prunedBytes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure5 regenerates Figure 5: memory used to process each
// query on the original and the pruned document. The MBalloc metric is
// the figure's y-axis (B/op from -benchmem agrees).
func BenchmarkFigure5(b *testing.B) {
	for _, id := range allIDs() {
		b.Run(id, func(b *testing.B) {
			p := prepare(b, id)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bench.MeasureRun(p.q, p.prunedBytes); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(p.row.Orig.AllocBytes)/(1<<20), "MBalloc-orig")
			b.ReportMetric(float64(p.row.Pruned.AllocBytes)/(1<<20), "MBalloc-pruned")
		})
	}
}

// BenchmarkPruningLinear checks the §6 claim that pruning time is linear
// in document size: the MB/s metric should be roughly constant across
// scales.
func BenchmarkPruningLinear(b *testing.B) {
	q, _ := bench.QueryByID("QP01")
	for _, factor := range []float64{0.005, 0.01, 0.02, 0.04} {
		b.Run(fmt.Sprintf("factor=%g", factor), func(b *testing.B) {
			w := bench.NewWorkload(factor, 42)
			pr, err := w.Projector(q)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(w.DocBytes)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var sink bytes.Buffer
				if _, err := prune.Stream(&sink, bytes.NewReader(w.DocBytes), w.D, nil, prune.StreamOptions{Projection: pr.Compiled()}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPruneMemory checks that the streaming pruner's working set is
// bounded by document depth, not size: maxdepth stays flat as the
// document grows.
func BenchmarkPruneMemory(b *testing.B) {
	q, _ := bench.QueryByID("QP02")
	for _, factor := range []float64{0.005, 0.02} {
		b.Run(fmt.Sprintf("factor=%g", factor), func(b *testing.B) {
			w := bench.NewWorkload(factor, 42)
			pr, err := w.Projector(q)
			if err != nil {
				b.Fatal(err)
			}
			var depth int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var sink bytes.Buffer
				st, err := prune.Stream(&sink, bytes.NewReader(w.DocBytes), w.D, nil, prune.StreamOptions{Projection: pr.Compiled()})
				if err != nil {
					b.Fatal(err)
				}
				depth = st.MaxDepth
			}
			b.ReportMetric(float64(depth), "maxdepth")
		})
	}
}

// BenchmarkStaticAnalysis times projector inference per query (the paper:
// always below half a second, even for complex queries and DTDs).
func BenchmarkStaticAnalysis(b *testing.B) {
	w := workload()
	for _, id := range []string{"QM01", "QM09", "QM10", "QM19", "QP05", "QP08", "QP13", "QP14"} {
		q, _ := bench.QueryByID(id)
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := w.Projector(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHeuristicRewrite quantifies the §5 for/if rewriting: without
// it, the extracted path ends in descendant-or-self::node() and pruning
// degenerates; with it, the pushed predicate restores selectivity.
func BenchmarkHeuristicRewrite(b *testing.B) {
	w := workload()
	src := `for $y in /site/open_auctions/open_auction/descendant-or-self::node()
return if ($y/increase = "1.00") then $y/increase else ()`
	ast, err := xquery.Parse(src)
	if err != nil {
		b.Fatal(err)
	}

	size := func(pr *core.Projector) float64 {
		out, err := pruneBytes(w, pr)
		if err != nil {
			b.Fatal(err)
		}
		return 100 * float64(len(out)) / float64(len(w.DocBytes))
	}
	b.Run("without", func(b *testing.B) {
		var pct float64
		for i := 0; i < b.N; i++ {
			pr, err := core.Infer(w.D, xquery.Extract(ast))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				pct = size(pr)
			}
		}
		b.ReportMetric(pct, "size%")
	})
	b.Run("with", func(b *testing.B) {
		var pct float64
		for i := 0; i < b.N; i++ {
			pr, err := core.Infer(w.D, xquery.Extract(xquery.RewriteForIf(ast)))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				pct = size(pr)
			}
		}
		b.ReportMetric(pct, "size%")
	})
}

// BenchmarkBaselineComparison reproduces the §1.1/§5 comparison with
// Marian & Siméon's path-based projection: retained size (precision) and
// visited nodes (pruning work) per query.
func BenchmarkBaselineComparison(b *testing.B) {
	w := workload()
	for _, id := range []string{"QP01", "QP03", "QP05", "QP10", "QP21", "QM14"} {
		q, _ := bench.QueryByID(id)
		b.Run(id, func(b *testing.B) {
			var c bench.BaselineComparison
			var err error
			for i := 0; i < b.N; i++ {
				c, err = bench.RunBaseline(w, q)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*float64(c.TypePrunedBytes)/float64(len(w.DocBytes)), "type-size%")
			b.ReportMetric(100*float64(c.PathPrunedBytes)/float64(len(w.DocBytes)), "path-size%")
			b.ReportMetric(float64(c.PathVisited)/float64(c.TypeVisited), "visit-ratio")
		})
	}
}

// BenchmarkGenerator measures XMark document generation throughput (the
// xmlgen stand-in).
func BenchmarkGenerator(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		doc := xmark.NewGenerator(0.005, int64(i)).Document()
		if doc.NumNodes() == 0 {
			b.Fatal("empty document")
		}
	}
}

// BenchmarkQueryBunch measures the §5 multi-query scenario: one union
// projector serving the whole benchmark workload minus QP13 (the
// deliberately unselective /site//node(), which alone keeps everything
// and would mask the union) — the capability [9] lacks. The size% metric
// is the pruned fraction under the union projector; per-query pruning
// would produce 42 separate documents instead of this single one.
func BenchmarkQueryBunch(b *testing.B) {
	w := workload()
	var union *core.Projector
	for i := 0; i < b.N; i++ {
		union = nil
		for _, q := range bench.AllQueries() {
			if q.ID == "QP13" {
				continue
			}
			pr, err := w.Projector(q)
			if err != nil {
				b.Fatal(err)
			}
			if union == nil {
				union = pr
			} else {
				union.Union(pr)
			}
		}
	}
	pruned, err := pruneBytes(w, union)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(100*float64(len(pruned))/float64(len(w.DocBytes)), "size%")
	b.ReportMetric(float64(union.Row.Len()), "names")
}

// pruneBytes runs the streaming pruner on the workload's document.
func pruneBytes(w *bench.Workload, pr *core.Projector) ([]byte, error) {
	var out bytes.Buffer
	_, err := prune.StreamBytes(&out, w.DocBytes, w.D, nil, prune.StreamOptions{Projection: pr.Compiled()})
	return out.Bytes(), err
}
