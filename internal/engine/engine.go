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
	"crypto/sha256"
	"encoding/hex"
	"io"
	"runtime"
	"time"

	"xmlproj/internal/cache"
	"xmlproj/internal/core"
	"xmlproj/internal/dtd"
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

// CacheSize bounds each of the projector, compiled-projection and
// fused-table caches. Their entries are small (a name set or a decision
// table over the DTD), so the bound caps the number of distinct
// workloads retained, not memory.
const CacheSize = 128

// Options configures an Engine.
type Options struct {
	// Workers is the default worker-pool width for PruneBatch when the
	// batch options leave it unset. Zero means GOMAXPROCS.
	Workers int
	// ResultCacheBytes budgets the content-addressed cache of pruned
	// outputs (internal/rescache): repeat (document digest, projection
	// fingerprint, validate) requests are served from cached bytes
	// instead of rescanning. Zero or negative disables it.
	ResultCacheBytes int64
}

// Engine is safe for concurrent use by any number of goroutines.
type Engine struct {
	opts Options

	// inferred caches projectors by workload.
	inferred *cache.Cache[Key, *core.Projector]

	// proj caches compiled projections (π against a DTD's symbol table)
	// so batches and repeated prunes of one workload compile π once.
	proj *cache.Cache[projKey, *dtd.Projection]

	// multi caches fused multi-projection decision tables so repeated
	// shared-scan requests fuse their set once.
	multi *cache.Cache[multiKey, *dtd.Projection]

	// results caches pruned outputs by (document digest, variant); nil
	// when Options.ResultCacheBytes is not positive.
	results *rescache.Cache

	m counters
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	return &Engine{
		opts:     opts,
		inferred: cache.New[Key, *core.Projector](CacheSize, nil),
		proj:     cache.New[projKey, *dtd.Projection](CacheSize, nil),
		multi:    cache.New[multiKey, *dtd.Projection](CacheSize, nil),
		results:  rescache.New(opts.ResultCacheBytes),
	}
}

func (e *Engine) workers() int {
	if e.opts.Workers > 0 {
		return e.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
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

// Fingerprint hashes the given parts into a compact stable hex key,
// suitable for Key.Schema and Key.Bunch. Parts are length-delimited, so
// distinct part lists never collide by concatenation.
func Fingerprint(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		var n [8]byte
		for i, l := 0, len(p); i < 8; i, l = i+1, l>>8 {
			n[i] = byte(l)
		}
		h.Write(n[:])
		io.WriteString(h, p)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
