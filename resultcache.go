package xmlproj

import "xmlproj/internal/rescache"

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
	return eng.results.Enabled()
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
// Empty when the cache is disabled or the digest is not one DigestBytes
// returns: it is the client's word, and an ETag must name a document.
func (eng *Engine) ResultETag(p *Projector, docDigest string, validate bool) string {
	if !eng.ResultCacheEnabled() {
		return ""
	}
	if _, err := rescache.ParseDigest(docDigest); err != nil {
		return ""
	}
	return etagOf(docDigest, p.pr.ResultFingerprint(validate))
}

// CachedLen peeks at the result cache: the rendered output size for
// (document digest, projector, validate) if it is cached right now.
// No prune runs and no hit/miss counters move — this is the HEAD path.
func (eng *Engine) CachedLen(p *Projector, docDigest string, validate bool) (int64, bool) {
	c := eng.results
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
	c := eng.results
	if !c.Enabled() {
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

	// The fill leader keeps its pooled spans and writes its own response
	// from them. The cache gets a view of them to digest and, if it holds
	// no copy of those bytes yet, to copy — and only when it can keep the
	// copy: an output larger than a shard's budget is never copied.
	var filled *PruneResult
	entry, hit, err := c.GetOrFill(rescache.Key{Doc: dig, Variant: fp}, func() (*rescache.Entry, error) {
		res, err := p.PruneGather(data, opts)
		if err != nil {
			return nil, err
		}
		filled = res
		if !c.Cacheable(res.sl.Len()) {
			return nil, nil
		}
		return rescache.NewGatherEntry(res.sl, res.Stats), nil
	})
	switch {
	case err != nil:
		return nil, info, err
	case hit:
		info.Hit = true
		return &PruneResult{Stats: entry.Stats, cached: entry}, info, nil
	case filled != nil:
		return filled, info, nil
	}
	// Coalesced onto a fill whose output was too large to cache: nothing
	// shareable came back, so prune privately.
	res, err := p.PruneGather(data, opts)
	return res, info, err
}
