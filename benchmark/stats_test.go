package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{90, 90}, {95, 100}, {100, 100}, {50, 50}, {10, 10}, {1, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 90); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 50 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := geomean([]float64{2, 8}); !near(got, 4) {
		t.Errorf("geomean(2,8) = %v, want 4", got)
	}
	// A class without samples reports 0 and must not zero the mean.
	if got := geomean([]float64{2, 0, 8}); !near(got, 4) {
		t.Errorf("geomean skipping 0 = %v, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v", got)
	}
}

func TestRelSpread(t *testing.T) {
	if got := relSpread([]float64{100, 110}); !near(got, 10.0/105) {
		t.Errorf("relSpread = %v", got)
	}
	if got := relSpread([]float64{7}); got != 0 {
		t.Errorf("relSpread of one set = %v", got)
	}
	if got := relSpread([]float64{0, 0}); got != 0 {
		t.Errorf("relSpread of equal zeros = %v", got)
	}
}

func TestSummarise(t *testing.T) {
	var samples []sample
	// Class a: 1..10 ms, class b: ten times that; b has peak RSS.
	for i := 1; i <= 10; i++ {
		samples = append(samples,
			sample{class: "a", ms: float64(i)},
			sample{class: "b", ms: float64(10 * i), rssMB: 64})
	}
	stats, opMS, p90, rss := summarise([]string{"a", "b", "empty"}, samples)
	if len(stats) != 3 || stats[0].N != 10 || stats[2].N != 0 {
		t.Fatalf("class stats = %+v", stats)
	}
	if stats[0].MedianMS != 5.5 || stats[1].MedianMS != 55 || stats[0].P90MS != 9 {
		t.Errorf("class medians / p90 = %+v", stats)
	}
	if want := math.Sqrt(5.5 * 55); !near(opMS, want) {
		t.Errorf("op_ms = %v, want %v (the empty class is skipped)", opMS, want)
	}
	// Both classes have the same shape, so the pooled normalised p90 is
	// the p90 of either: 9/5.5 of the median.
	if want := opMS * 9 / 5.5; !near(p90, want) {
		t.Errorf("op_p90_ms = %v, want %v", p90, want)
	}
	if !near(rss, 64) {
		t.Errorf("peak rss = %v, want 64 (classes without RSS are skipped)", rss)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Layer: "harness", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Op: 1, Layer: "scan", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Op: 1, Layer: "tree", StartNS: 30, EndNS: 60}, // overlaps span 2 by 10
		{ID: 4, Parent: 3, Op: 1, Layer: "io", StartNS: 35, EndNS: 45},
		{ID: 5, Op: 2, Layer: "harness", StartNS: 200, EndNS: 220},
	}
	self := selfNS(spans)
	for id, want := range map[int]int64{1: 50, 2: 30, 3: 20, 4: 10, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	// Two ops: per-layer self time is the mean over ops, in ms.
	got := layerSelfMS(spans)
	if !near(got["harness"], (50+20)/2.0/1e6) || !near(got["scan"], 30/2.0/1e6) {
		t.Errorf("layerSelfMS = %v", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer("w")
	tr.beginOp("c")
	tr.do("harness", "op", 0, func() {
		tr.do("scan", "inner", 7, func() { tr.setAttr("engine=scanner") })
	})
	if len(tr.spans) != 2 {
		t.Fatalf("got %d spans", len(tr.spans))
	}
	outer, inner := tr.spans[0], tr.spans[1]
	if outer.Parent != 0 || inner.Parent != outer.ID || inner.Op != outer.Op || inner.Class != "c" {
		t.Errorf("nesting: outer %+v inner %+v", outer, inner)
	}
	if inner.Attr != "engine=scanner" || inner.Bytes != 7 || inner.Workload != "w" {
		t.Errorf("inner span = %+v", inner)
	}
	if inner.StartNS < outer.StartNS || inner.EndNS > outer.EndNS {
		t.Errorf("inner span is not inside its parent: %+v %+v", outer, inner)
	}
}
