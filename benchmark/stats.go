package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest value with at least p% of the samples at or below
// it. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the midpoint median: the mean of the two middle values for
// an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// geomean is the geometric mean of the positive values in xs; values
// <= 0 are skipped (a class without samples must not zero the mean).
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// relSpread is (max - min) / median of xs: how far repeated sets of
// the same code disagree, as a share of the typical value.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	m := median(xs)
	if m == 0 {
		if hi == lo {
			return 0
		}
		return math.Inf(1)
	}
	return (hi - lo) / math.Abs(m)
}

// sample is one successful timed op.
type sample struct {
	class string
	ms    float64
	bytes int64   // input bytes the op processed
	rssMB float64 // child peak RSS; 0 for HTTP ops
}

// classStat summarises one op class of a run.
type classStat struct {
	Class    string  `json:"class"`
	N        int     `json:"n"`
	MedianMS float64 `json:"median_ms"`
	P90MS    float64 `json:"p90_ms"`
	RSSMB    float64 `json:"median_rss_mb,omitempty"`
	// TracedMS is the class's replayed op in the traced run: the median
	// duration of its root span.
	TracedMS float64 `json:"traced_ms,omitempty"`
}

// summarise folds the samples of one timed window into per-class
// statistics, op_ms, the tail (trace.op_p90_ms) and the process
// workloads' rss_mb.
//
// op_ms is the geometric mean over classes of the class median, so a
// slow class cannot drown a fast one and a bimodal mix has no unstable
// pooled median. The tail is op_ms times the 90th percentile of every
// sample divided by its own class median: pooling the normalised
// samples gives the tail enough samples on the process workloads,
// where a class has only a handful per run.
func summarise(classes []string, samples []sample) (stats []classStat, opMS, opP90MS, rssMB float64) {
	byClass := make(map[string][]sample)
	for _, s := range samples {
		byClass[s.class] = append(byClass[s.class], s)
	}
	var medians, rss, ratios []float64
	for _, c := range classes {
		ss := byClass[c]
		ms := make([]float64, len(ss))
		mb := make([]float64, len(ss))
		for i, s := range ss {
			ms[i], mb[i] = s.ms, s.rssMB
		}
		st := classStat{Class: c, N: len(ss), MedianMS: median(ms), P90MS: percentile(ms, 90), RSSMB: median(mb)}
		stats = append(stats, st)
		medians = append(medians, st.MedianMS)
		rss = append(rss, st.RSSMB)
		for _, v := range ms {
			if st.MedianMS > 0 {
				ratios = append(ratios, v/st.MedianMS)
			}
		}
	}
	opMS = geomean(medians)
	return stats, opMS, opMS * percentile(ratios, 90), geomean(rss)
}
