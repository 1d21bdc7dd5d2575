// Package engine is the concurrent projection engine: a bounded LRU
// cache of inferred projectors with single-flight deduplication
// (internal/cache), a
// worker pool that prunes batches of documents through the §6 streaming
// pruner, and counters exposing what the engine did.
//
// The design follows the journal version of the paper (Benzaken,
// Castagna, Colazzo, Nguyên, arXiv:1104.2079): projectors are closed
// under union and depend only on the schema and the query bunch, so a
// server can infer one projector per workload and reuse it across every
// document and every concurrent client. Inference is the only
// non-trivial cost; pruning itself is a one-pass constant-memory scan
// that parallelises trivially across documents.
package engine

import (
	"time"

	"xmlproj/internal/cache"
	"xmlproj/internal/core"
	"xmlproj/internal/rescache"
)

// Key identifies a cached projector: the schema fingerprint, the
// canonical rendering of the query bunch, and the inference mode.
// Projector inference is deterministic in these three inputs.
type Key struct {
	Schema string
	Bunch  string
	Mode   uint8
}

// CacheSize bounds the projector cache. An entry is a name set plus the
// decision table and fingerprints derived from it, so the bound caps the
// number of distinct workloads retained, not memory.
const CacheSize = 128

// Options configures an Engine.
type Options struct {
	// ResultCacheBytes budgets the content-addressed cache of pruned
	// outputs (internal/rescache) on the gather route: a repeat
	// (document digest, projection fingerprint, validate) request is
	// served from cached bytes instead of rescanning. Zero or negative
	// disables it. PruneBatch never consults it.
	ResultCacheBytes int64
}

// Engine is safe for concurrent use by any number of goroutines.
type Engine struct {
	// inferred caches projectors by workload. Traffic: every ad-hoc
	// xmlprojd request (?q=) asks for its bunch's projector. A hit is a
	// map probe; the fill it saves is an inference, core.infer_ms / 10
	// ≈ 5.5 ms. The cached projector carries π's compiled table and
	// result fingerprints (core.Projector), so a hit recomputes neither.
	inferred *cache.Cache[Key, *core.Projector]

	// results caches pruned outputs by (document digest, variant); nil
	// when Options.ResultCacheBytes is not positive.
	results *rescache.Cache

	m counters
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	return &Engine{
		inferred: cache.New[Key, *core.Projector](CacheSize, nil),
		results:  rescache.New(opts.ResultCacheBytes),
	}
}

// InferCached returns the projector for key, computing it with infer on
// a cache miss. Concurrent calls for the same key are deduplicated: one
// caller runs infer, the rest block and share the result. Errors are
// shared with the callers that were waiting but are not cached, so a
// later request retries.
func (e *Engine) InferCached(key Key, infer func() (*core.Projector, error)) (*core.Projector, error) {
	pr, out, err := e.inferred.GetOrFill(key, func() (*core.Projector, bool, error) {
		e.m.misses.Add(1)
		start := time.Now()
		pr, err := infer()
		e.m.inferences.Add(1)
		e.m.inferNanos.Add(time.Since(start).Nanoseconds())
		return pr, true, err
	})
	switch out {
	case cache.Hit:
		e.m.hits.Add(1)
	case cache.Coalesced:
		e.m.coalesced.Add(1)
	}
	return pr, err
}
