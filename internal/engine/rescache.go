package engine

import (
	"xmlproj/internal/prune"
	"xmlproj/internal/rescache"
)

// ResultCache exposes the engine's content-addressed cache of pruned
// outputs; nil when disabled. Callers use it for peek-style lookups
// (HEAD, CachedLen).
func (e *Engine) ResultCache() *rescache.Cache { return e.results }

// CachedGather serves one prune through the result cache with
// single-flight fill. On a hit (or when this caller coalesced onto
// another's fill) it returns the shared immutable entry with g == nil.
// On a miss the caller's fill runs: the returned g is the live pooled
// Gather — the caller keeps zero-copy ownership and must Close it —
// while the cache retains its own materialized copy (made inside
// GetOrFill, and only if it does not hold those bytes already, so pool
// reuse can never alias cached bytes). Outputs larger than a shard's
// budget are returned but not cached, and a caller that coalesced onto
// such a fill re-runs fill privately.
//
// With the cache disabled (a nil rescache.Cache stores nothing) this
// degenerates to calling fill.
func (e *Engine) CachedGather(key rescache.Key, fill func() (*prune.Gather, prune.Stats, error)) (entry *rescache.Entry, g *prune.Gather, stats prune.Stats, hit bool, err error) {
	entry, hit, err = e.results.GetOrFill(key, func() (*rescache.Entry, error) {
		gg, st, ferr := fill()
		if ferr != nil {
			return nil, ferr
		}
		g, stats = gg, st
		if !e.results.Cacheable(gg.Len()) {
			return nil, nil
		}
		return rescache.NewGatherEntry(gg, st), nil
	})
	switch {
	case err != nil:
		return nil, nil, prune.Stats{}, false, err
	case hit:
		return entry, nil, entry.Stats, true, nil
	case g != nil:
		// This caller was the fill leader: it owns the pooled Gather.
		return entry, g, stats, false, nil
	default:
		// Coalesced onto a leader whose output was too large to cache:
		// nothing shareable came back, so prune privately.
		g, stats, err = fill()
		return nil, g, stats, false, err
	}
}
