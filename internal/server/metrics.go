package server

import (
	"net/http"
	"sync/atomic"
	"time"
)

// latencyBounds are the inclusive upper bounds of the request-latency
// histogram buckets; requests slower than the last bound land in the
// overflow bucket.
var latencyBounds = [...]time.Duration{
	1 * time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
}

// histogram is a fixed-bucket latency histogram updated with atomics, so
// the request path never serialises on a metrics lock.
type histogram struct {
	buckets [len(latencyBounds) + 1]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

func (h *histogram) observe(d time.Duration) {
	i := 0
	for i < len(latencyBounds) && d > latencyBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(d.Nanoseconds())
}

// snapshot renders the histogram Prometheus-style: cumulative counts per
// "le" bound plus count and sum.
func (h *histogram) snapshot() map[string]any {
	m := make(map[string]any, len(latencyBounds)+3)
	var cum int64
	for i, b := range latencyBounds {
		cum += h.buckets[i].Load()
		m["le_"+b.String()] = cum
	}
	m["le_inf"] = cum + h.buckets[len(latencyBounds)].Load()
	m["count"] = h.count.Load()
	m["sum_nanos"] = h.sum.Load()
	return m
}

// metrics are the server's own counters, alongside the engine's.
type metrics struct {
	// requests counts every prune request received (POST and HEAD /prune,
	// POST /multiprune). The seven outcome counters below partition the
	// finished ones: exchange.done bumps exactly one, chosen by outcome,
	// and observes latency once.
	requests      atomic.Int64
	ok            atomic.Int64 // any 2xx, or 304
	badRequests   atomic.Int64 // malformed request: unknown schema, bad query, missing header
	rejectedBusy  atomic.Int64 // admission control said no (429)
	rejectedLarge atomic.Int64 // body over the size limit (413)
	timeouts      atomic.Int64 // request deadline passed mid-prune (408)
	pruneFailures atomic.Int64 // the document itself failed to prune (422)
	clientGone    atomic.Int64 // client disconnected or cut its upload short (499)
	gatherPrunes  atomic.Int64 // requests served by the span-gather path
	inFlight      atomic.Int64 // prunes currently holding an admission slot

	// pipelinedPrunes counts requests served by the pipelined streaming
	// engine; peakWindowBytes is the largest window-slab residency any
	// single request reached (a high-water gauge, not a counter).
	pipelinedPrunes atomic.Int64
	peakWindowBytes atomic.Int64

	// multiRequests counts /multiprune requests; multiFanout totals the
	// projectors they named (fanout/requests is the mean set size).
	multiRequests atomic.Int64
	multiFanout   atomic.Int64

	// cacheHits / cacheMisses partition gather-path prunes that went
	// through the result cache (HIT served cached bytes, MISS filled the
	// cache); cache304 counts body-free revalidations answered 304 (both
	// the POST If-None-Match path and HEAD probes); cacheHead counts
	// HEAD /prune requests. Eviction and byte-residency counters live in
	// the engine section of /debug/vars as result_cache_*.
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	cache304    atomic.Int64
	cacheHead   atomic.Int64

	bytesIn  atomic.Int64
	bytesOut atomic.Int64
	latency  histogram
}

// outcome is the one counter a request that finished with status lands
// in.
func (m *metrics) outcome(status int) *atomic.Int64 {
	switch {
	case status < 400:
		return &m.ok
	case status == http.StatusRequestEntityTooLarge:
		return &m.rejectedLarge
	case status == http.StatusTooManyRequests:
		return &m.rejectedBusy
	case status == http.StatusRequestTimeout:
		return &m.timeouts
	case status == http.StatusUnprocessableEntity:
		return &m.pruneFailures
	case status == statusClientGone:
		return &m.clientGone
	default:
		return &m.badRequests
	}
}

// raise lifts a high-water gauge to v if v is larger (lock-free max).
func raise(g *atomic.Int64, v int64) {
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (m *metrics) snapshot() map[string]any {
	return map[string]any{
		"requests":             m.requests.Load(),
		"ok":                   m.ok.Load(),
		"bad_requests":         m.badRequests.Load(),
		"rejected_concurrency": m.rejectedBusy.Load(),
		"rejected_too_large":   m.rejectedLarge.Load(),
		"timeouts":             m.timeouts.Load(),
		"prune_failures":       m.pruneFailures.Load(),
		"client_gone":          m.clientGone.Load(),
		"gather_prunes":        m.gatherPrunes.Load(),
		"pipelined_prunes":     m.pipelinedPrunes.Load(),
		"peak_window_bytes":    m.peakWindowBytes.Load(),
		"in_flight":            m.inFlight.Load(),
		"multi_requests":       m.multiRequests.Load(),
		"multi_fanout":         m.multiFanout.Load(),
		"cache_hits":           m.cacheHits.Load(),
		"cache_misses":         m.cacheMisses.Load(),
		"cache_304":            m.cache304.Load(),
		"cache_head":           m.cacheHead.Load(),
		"bytes_in":             m.bytesIn.Load(),
		"bytes_out":            m.bytesOut.Load(),
		"latency":              m.latency.snapshot(),
	}
}

// handleVars serves the /debug/vars document: the full engine.Metrics
// snapshot plus the server counters, as one JSON object. It is
// self-contained (not the global expvar registry) so several servers in
// one process — or one test binary — never fight over published names.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	vars := map[string]any{
		"engine": s.eng.MetricsMap(),
		"server": s.m.snapshot(),
		"limits": map[string]any{
			"max_body_bytes":   s.maxBody,
			"max_token_size":   s.opts.MaxTokenSize,
			"max_gather_bytes": s.maxGather,
			"max_concurrent":   cap(s.sem),
			"intra_workers":    s.intraWorkers,
		},
	}
	writeJSON(w, vars)
}
