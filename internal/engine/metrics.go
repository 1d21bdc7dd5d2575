package engine

import (
	"sync/atomic"
	"time"

	"xmlproj/internal/rescache"
)

// counters are the engine's live counters, updated with atomics so the
// hot paths never serialise on a metrics lock.
type counters struct {
	hits        atomic.Int64
	misses      atomic.Int64
	coalesced   atomic.Int64
	inferences  atomic.Int64
	inferNanos  atomic.Int64
	docsPruned  atomic.Int64
	pruneErrors atomic.Int64
	bytesIn     atomic.Int64
	bytesOut    atomic.Int64
}

// Metrics is a point-in-time snapshot of the engine's counters.
type Metrics struct {
	// CacheHits counts InferCached calls answered from the cache;
	// CacheMisses counts calls that ran inference; Coalesced counts
	// calls that piggybacked on another caller's in-flight inference
	// (single-flight deduplication). Evictions counts LRU evictions.
	CacheHits, CacheMisses, Coalesced, Evictions int64
	// CacheEntries is the number of projectors currently cached.
	CacheEntries int
	// Inferences counts projector inferences actually executed and
	// InferenceTime their cumulative wall time.
	Inferences    int64
	InferenceTime time.Duration
	// DocsPruned / PruneErrors count batch jobs by outcome.
	DocsPruned, PruneErrors int64
	// BytesIn / BytesOut total the document bytes read and written by
	// batch pruning.
	BytesIn, BytesOut int64
	// ResultCache is the content-addressed pruned-output cache snapshot
	// (all zero when the cache is disabled).
	ResultCache rescache.Metrics
}

// Metrics returns a snapshot. Individual counters are each read
// atomically; the snapshot as a whole is not a consistent cut, which is
// fine for observability.
func (e *Engine) Metrics() Metrics {
	inferred := e.inferred.Usage()
	return Metrics{
		CacheHits:     e.m.hits.Load(),
		CacheMisses:   e.m.misses.Load(),
		Coalesced:     e.m.coalesced.Load(),
		Evictions:     inferred.Evictions,
		CacheEntries:  inferred.Entries,
		Inferences:    e.m.inferences.Load(),
		InferenceTime: time.Duration(e.m.inferNanos.Load()),
		DocsPruned:    e.m.docsPruned.Load(),
		PruneErrors:   e.m.pruneErrors.Load(),
		BytesIn:       e.m.bytesIn.Load(),
		BytesOut:      e.m.bytesOut.Load(),
		ResultCache:   e.results.Snapshot(),
	}
}

// Map flattens the snapshot into export-friendly key/value pairs —
// the hook expvar-style publishers (the xmlprojd /debug/vars endpoint)
// serialise. Durations are exported in nanoseconds.
func (m Metrics) Map() map[string]any {
	return map[string]any{
		"cache_hits":                m.CacheHits,
		"cache_misses":              m.CacheMisses,
		"coalesced":                 m.Coalesced,
		"evictions":                 m.Evictions,
		"cache_entries":             m.CacheEntries,
		"inferences":                m.Inferences,
		"inference_nanos":           int64(m.InferenceTime),
		"docs_pruned":               m.DocsPruned,
		"prune_errors":              m.PruneErrors,
		"bytes_in":                  m.BytesIn,
		"bytes_out":                 m.BytesOut,
		"result_cache_hits":         m.ResultCache.Hits,
		"result_cache_misses":       m.ResultCache.Misses,
		"result_cache_coalesced":    m.ResultCache.Coalesced,
		"result_cache_evictions":    m.ResultCache.Evictions,
		"result_cache_bypasses":     m.ResultCache.Bypasses,
		"result_cache_entries":      m.ResultCache.Entries,
		"result_cache_bytes":        m.ResultCache.Bytes,
		"result_cache_budget_bytes": m.ResultCache.Budget,
	}
}
