package xmlproj

import (
	"xmlproj/internal/prune"
	"xmlproj/internal/rescache"
)

// DefaultResultCacheBytes is the recommended result-cache budget for
// server deployments (the xmlprojd default): large enough to hold a
// working set of pruned outputs, small next to the document corpus the
// paper's workloads assume.
const DefaultResultCacheBytes int64 = 256 << 20

// CacheInfo describes how the engine's result cache handled one prune.
type CacheInfo struct {
	// Enabled reports that the call was eligible for the cache (a cache
	// is configured and nothing forced a bypass). When false the other
	// fields are zero.
	Enabled bool
	// Hit reports the prune was served from a cached entry — including
	// coalescing onto another caller's in-flight fill.
	Hit bool
	// Digest is the document's content digest (32 hex chars), the value
	// clients echo back in X-Doc-Digest for body-less revalidation.
	Digest string
	// ETag is the strong entity tag for the (document, projector,
	// validate) triple: quoted "digest-fingerprint".
	ETag string
}

// etagOf renders the strong ETag for a (digest, fingerprint) pair.
func etagOf(digest, fp string) string {
	return `"` + digest + "-" + fp + `"`
}

// ResultCacheEnabled reports whether this engine was built with a
// result cache (EngineOptions.ResultCacheBytes > 0).
func (eng *Engine) ResultCacheEnabled() bool {
	return eng.e.ResultCache().Enabled()
}

// DigestBytes returns the content digest (32 hex chars) the result
// cache keys data under — the value ResultETag and PruneGatherDigest
// accept, and what xmlprojd returns in X-Doc-Digest. ok is false when
// the engine has no result cache (digests are then meaningless to it).
// Digests are stable within a process, not across restarts.
func (eng *Engine) DigestBytes(data []byte) (digest string, ok bool) {
	if !eng.ResultCacheEnabled() {
		return "", false
	}
	return rescache.DigestBytes(data).String(), true
}

// ResultETag composes the strong ETag for (document digest, projector,
// validate): the token a client revalidates with via If-None-Match.
// Empty when the digest is empty or the cache is disabled.
func (eng *Engine) ResultETag(p *Projector, docDigest string, validate bool) string {
	if docDigest == "" || !eng.ResultCacheEnabled() {
		return ""
	}
	return etagOf(docDigest, p.pr.ResultFingerprint(validate))
}

// CachedLen peeks at the result cache: the rendered output size for
// (document digest, projector, validate) if it is cached right now.
// No prune runs and no hit/miss counters move — this is the HEAD path.
func (eng *Engine) CachedLen(p *Projector, docDigest string, validate bool) (int64, bool) {
	c := eng.e.ResultCache()
	if !c.Enabled() {
		return 0, false
	}
	dig, err := rescache.ParseDigest(docDigest)
	if err != nil {
		return 0, false
	}
	entry, ok := c.Get(rescache.Key{Doc: dig, Variant: p.pr.ResultFingerprint(validate)})
	if !ok {
		return 0, false
	}
	return entry.Len(), true
}

// PruneGatherDigest is Projector.PruneGather routed through the
// engine's result cache: a repeat (digest, projector, validate) triple
// is served from cached bytes — byte identical to a fresh prune —
// without scanning the document. Cold triples prune once (concurrent
// duplicates coalesce onto one fill) and leave a materialized copy
// behind, subject to the byte budget. The caller must Close the result
// either way.
//
// docDigest is the document digest when already in hand (as returned by
// DigestBytes), so callers that digested the body for ETag purposes
// don't hash it twice; an empty or malformed digest is computed from
// data instead.
//
// Without a cache this is a plain PruneGather (info.Enabled false).
func (eng *Engine) PruneGatherDigest(p *Projector, data []byte, docDigest string, opts StreamOptions) (*PruneResult, CacheInfo, error) {
	if !eng.ResultCacheEnabled() {
		res, err := p.PruneGather(data, opts)
		return res, CacheInfo{}, err
	}
	var dig rescache.Digest
	if docDigest != "" {
		if d, err := rescache.ParseDigest(docDigest); err == nil {
			dig = d
		}
	}
	if dig.IsZero() {
		dig = rescache.DigestBytes(data)
	}
	fp := p.pr.ResultFingerprint(opts.Validate)
	info := CacheInfo{Enabled: true, Digest: dig.String(), ETag: etagOf(dig.String(), fp)}

	entry, g, st, hit, err := eng.e.CachedGather(rescache.Key{Doc: dig, Variant: fp}, func() (*prune.Gather, prune.Stats, error) {
		return prune.StreamGather(data, p.d, p.pr.Names, p.streamOpts(opts))
	})
	if err != nil {
		return nil, info, err
	}
	info.Hit = hit
	if g != nil {
		return &PruneResult{Stats: st, g: g}, info, nil
	}
	return &PruneResult{Stats: entry.Stats, cached: entry}, info, nil
}
