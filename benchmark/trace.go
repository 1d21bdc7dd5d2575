package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the traced run. The
// spans of one replayed op share Op; Parent is the ID of the span that
// caused this one (0 for the op's root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Op       int    `json:"op"`
	Workload string `json:"workload"`
	Class    string `json:"class"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Bytes    int64  `json:"bytes,omitempty"`
	Attr     string `json:"attr,omitempty"`
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine: the traced run replays ops one layer call at a time.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	stack    []int // indexes into spans of the open spans
	op       int
	class    string
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// beginOp starts a new op: the spans that follow share its identifier.
func (t *tracer) beginOp(class string) {
	t.op++
	t.class = class
}

// do records a span around f and returns its duration. Calls nest: a
// do inside f becomes a child span.
func (t *tracer) do(layer, name string, bytes int64, f func()) time.Duration {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{
		ID: idx + 1, Parent: parent, Op: t.op, Workload: t.workload, Class: t.class,
		Layer: layer, Name: name, Bytes: bytes,
	})
	t.stack = append(t.stack, idx)
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[idx].StartNS, t.spans[idx].EndNS = int64(start), int64(end)
	return end - start
}

// setAttr annotates the innermost open span (e.g. with the engine that
// auto-selection chose).
func (t *tracer) setAttr(attr string) {
	if n := len(t.stack); n > 0 {
		t.spans[t.stack[n-1]].Attr = attr
	}
}

// selfNS returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once).
func selfNS(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered int64
		edge := s.StartNS // everything before edge is already counted
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.EndNS - s.StartNS - covered
	}
	return self
}

// layerSelfMS sums self time per layer over the spans of replayed ops
// and divides by the number of ops: the mean milliseconds one op spends
// inside each layer itself.
func layerSelfMS(spans []span) map[string]float64 {
	self := selfNS(spans)
	ops := make(map[int]bool)
	out := make(map[string]float64)
	for _, s := range spans {
		ops[s.Op] = true
		out[s.Layer] += float64(self[s.ID]) / 1e6
	}
	for l := range out {
		out[l] /= float64(len(ops))
	}
	return out
}

// writeTrace writes the spans as one JSON document.
func writeTrace(path string, spans []span) error {
	return writeJSON(path, struct {
		Spans []span `json:"spans"`
	}{spans})
}
