package core_test

// The Fig. 1 ablation sits outside the package because its workload comes
// from internal/bench, which imports this one.

import (
	"testing"

	"xmlproj/internal/bench"
	"xmlproj/internal/core"
)

// BenchmarkAblationContext quantifies the Fig. 1 context machinery: on
// backward-axis queries the context-free analysis (the map oracle's: the
// product has no such mode) keeps more names.
func BenchmarkAblationContext(b *testing.B) {
	w := bench.NewWorkload(0.01, 42)
	for _, id := range []string{"QP09", "QP10", "QP19"} {
		q, _ := bench.QueryByID(id)
		paths, err := w.DataNeeds(q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(id, func(b *testing.B) {
			var with, without int
			for i := 0; i < b.N; i++ {
				prWith, err := core.Infer(w.D, paths)
				if err != nil {
					b.Fatal(err)
				}
				n, err := core.OracleNoContextLen(w.D, paths)
				if err != nil {
					b.Fatal(err)
				}
				with, without = prWith.Row.Len(), n
			}
			b.ReportMetric(float64(with), "names-ctx")
			b.ReportMetric(float64(without), "names-noctx")
		})
	}
}
