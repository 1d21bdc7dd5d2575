// Package rescache is the content-addressed cache of pruned outputs:
// the piece that makes repeat (document, projector) pairs — the
// workload the paper's amortization argument assumes — cost a digest
// and a map probe instead of a full scan.
//
// Keys are (document digest, variant), where the variant folds in the
// projection fingerprint, the validate mode and any engine-visible
// option that changes the answer. The pruned output itself is
// engine-independent (every engine is differential-tested to produce
// byte-identical bytes), so the engine choice is deliberately NOT part
// of the key: a result filled by the scanner serves a request that
// would have run the parallel pruner.
//
// Entries store materialized output bytes — an owned copy made at
// insert time — so the pooled span-gather buffers the pruner works in
// can be released immediately; nothing in the cache aliases pooled
// state. Eviction is size-aware LRU per shard under a global byte
// budget, and concurrent cold requests for one key are single-flight
// deduplicated: N callers, one prune.
package rescache

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/maphash"
	"io"
	"sync/atomic"

	"xmlproj/internal/cache"
	"xmlproj/internal/prune"
)

// Digest identifies document content: a keyed 64-bit hash over the
// bytes plus the exact length. The hash seed is drawn per process, so
// digests (and the ETags built from them) are stable within one server
// process but not across restarts — which HTTP conditional requests
// tolerate by design (a miss just re-prunes). Documents of different
// lengths can never collide; equal-length collisions need the keyed
// 64-bit hash to collide, which the hidden seed makes infeasible to
// construct and negligible (~n²/2⁶⁴) to hit by accident at cache-sized
// populations.
type Digest [16]byte

// docSeed keys DigestBytes; shardSeed spreads keys across shards.
var (
	docSeed   = maphash.MakeSeed()
	shardSeed = maphash.MakeSeed()
)

// DigestBytes digests document content. One pass at memory bandwidth —
// an order of magnitude cheaper than the scan it stands in for, which
// is what makes "serve repeat prunes in O(digest) time" a win.
func DigestBytes(b []byte) Digest {
	var d Digest
	binary.LittleEndian.PutUint64(d[0:8], maphash.Bytes(docSeed, b))
	binary.LittleEndian.PutUint64(d[8:16], uint64(len(b)))
	return d
}

// String renders the digest as 32 hex characters.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// IsZero reports whether the digest is unset.
func (d Digest) IsZero() bool { return d == Digest{} }

// ParseDigest parses a String rendering back into a Digest.
func ParseDigest(s string) (Digest, error) {
	var d Digest
	if len(s) != 2*len(d) {
		return d, fmt.Errorf("rescache: digest must be %d hex characters, got %d", 2*len(d), len(s))
	}
	if _, err := hex.Decode(d[:], []byte(s)); err != nil {
		return d, fmt.Errorf("rescache: bad digest: %w", err)
	}
	return d, nil
}

// Key identifies one cached result: document content by digest, and
// everything else that determines the output bytes — projection
// fingerprint, validate mode — folded into the variant string by the
// caller.
type Key struct {
	Doc     Digest
	Variant string
}

// Entry is one cached pruned output: an owned, immutable copy of the
// rendered bytes plus the prune's stats. Entries are shared by every
// reader that hits them; nothing may mutate the byte slice.
type Entry struct {
	out   []byte
	Stats prune.Stats
}

// NewEntry wraps an output copy the cache takes ownership of. The
// caller must not retain or modify out afterwards.
func NewEntry(out []byte, stats prune.Stats) *Entry {
	return &Entry{out: out, Stats: stats}
}

// Bytes returns the rendered output. The slice is shared and must be
// treated as read-only.
func (e *Entry) Bytes() []byte { return e.out }

// Len is the rendered output size in bytes.
func (e *Entry) Len() int64 { return int64(len(e.out)) }

// WriteTo writes the rendered output to w (io.WriterTo).
func (e *Entry) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(e.out)
	return int64(n), err
}

// AppendTo appends the rendered output to dst.
func (e *Entry) AppendTo(dst []byte) []byte { return append(dst, e.out...) }

// entryOverhead approximates the per-entry bookkeeping cost (list
// element, map bucket share, Entry and key headers) charged against
// the byte budget alongside the output bytes.
const entryOverhead = 128

func entryCost(key Key, e *Entry) int64 {
	return int64(len(e.out)) + int64(len(key.Variant)) + entryOverhead
}

// shardCount is the fixed shard fan-out (power of two). Sixteen
// mutexes keep hit-path contention negligible at server concurrency
// without fragmenting the byte budget into uselessly small slices.
const shardCount = 16

// identityCap bounds the file-identity memo table.
const identityCap = 4096

// Identity is a file's identity for the digest fast path: device,
// inode, size and mtime. An unchanged identity memoizes the content
// digest, so repeat prunes of the same file never rehash it. The usual
// caveat applies: a file rewritten in place within mtime granularity
// at the same size is indistinguishable, exactly as with make(1).
type Identity struct {
	Dev, Ino         uint64
	Size, MTimeNanos int64
}

// Identifier lets a prune source volunteer its file identity; batch
// sources backed by regular files implement it so the engine can take
// the digest fast path.
type Identifier interface {
	ResultCacheIdentity() (Identity, bool)
}

// Cache is a sharded, byte-budgeted, content-addressed cache of pruned
// outputs. Safe for concurrent use. A nil *Cache is valid and disabled:
// Get always misses and GetOrFill degenerates to calling fill.
type Cache struct {
	// shards are cache instances costed by entryCost, each under
	// perShard bytes, so the global footprint never exceeds
	// shardCount × perShard ≤ budget.
	shards   [shardCount]*cache.Cache[Key, *Entry]
	perShard int64
	budget   int64

	// ids memoizes file identity → digest, identityCap entries.
	ids *cache.Cache[Identity, Digest]

	hits, misses, coalesced      atomic.Int64
	bypasses                     atomic.Int64
	identityHits, identityMisses atomic.Int64
}

// New returns a cache with the given global byte budget, or nil (a
// valid, disabled cache) when the budget is not positive.
func New(budget int64) *Cache {
	if budget <= 0 {
		return nil
	}
	c := &Cache{
		budget:   budget,
		perShard: budget / shardCount,
		ids:      cache.New[Identity, Digest](identityCap, nil),
	}
	for i := range c.shards {
		c.shards[i] = cache.New(c.perShard, entryCost)
	}
	return c
}

// Enabled reports whether the cache exists.
func (c *Cache) Enabled() bool { return c != nil }

// Cacheable reports whether an output of n bytes can be retained at
// all: entries above the per-shard budget are served but never stored
// — copying them out would only thrash the LRU.
func (c *Cache) Cacheable(n int64) bool {
	return c != nil && n+entryOverhead <= c.perShard
}

func (c *Cache) shardOf(key Key) *cache.Cache[Key, *Entry] {
	var h maphash.Hash
	h.SetSeed(shardSeed)
	h.Write(key.Doc[:])
	h.WriteString(key.Variant)
	return c.shards[h.Sum64()&(shardCount-1)]
}

// Get probes the cache without filling: a peek for HEAD-style lookups.
// It refreshes the entry's LRU position but moves no hit/miss counters
// — a probe that finds nothing did not cost a prune.
func (c *Cache) Get(key Key) (*Entry, bool) {
	if c == nil {
		return nil, false
	}
	return c.shardOf(key).Get(key)
}

// GetOrFill returns the entry for key, running fill on a miss with
// single-flight deduplication: one caller fills, concurrent callers
// for the same key block and share the entry (hit=true for them) or
// the error (shared but never cached, so a later request retries).
// fill may return (nil, nil) to decline caching — its caller keeps
// whatever it produced privately, and blocked waiters get (nil, false,
// nil) and should fill for themselves. An entry larger than a shard's
// budget is declined on fill's behalf.
func (c *Cache) GetOrFill(key Key, fill func() (*Entry, error)) (*Entry, bool, error) {
	if c == nil {
		e, err := fill()
		return e, false, err
	}
	e, out, err := c.shardOf(key).GetOrFill(key, func() (*Entry, bool, error) {
		c.misses.Add(1)
		e, err := fill()
		store := err == nil && e != nil && entryCost(key, e) <= c.perShard
		if err == nil && !store {
			c.bypasses.Add(1)
		}
		return e, store, err
	})
	switch out {
	case cache.Hit:
		c.hits.Add(1)
		return e, true, nil
	case cache.Coalesced, cache.Declined:
		c.coalesced.Add(1)
		return e, e != nil, err
	}
	return e, false, err
}

// DigestFor digests data, memoizing by file identity when one is
// offered: an unchanged (dev, inode, size, mtime) returns the stored
// digest without rehashing, as does a call that finds another already
// hashing the same identity. An identity whose Size disagrees with the
// data in hand (a stat that raced a rewrite) is not trusted and not
// memoized.
func (c *Cache) DigestFor(data []byte, id *Identity) Digest {
	if c == nil || id == nil || id.Size != int64(len(data)) {
		return DigestBytes(data)
	}
	d, out, _ := c.ids.GetOrFill(*id, func() (Digest, bool, error) {
		return DigestBytes(data), true, nil
	})
	if out == cache.Filled {
		c.identityMisses.Add(1)
	} else {
		c.identityHits.Add(1)
	}
	return d
}

// Metrics is a point-in-time snapshot of the cache's counters.
type Metrics struct {
	// Hits counts lookups served from a cached entry, Misses lookups
	// that ran a fill, Coalesced callers that piggybacked on another
	// caller's in-flight fill.
	Hits, Misses, Coalesced int64
	// Evictions counts entries dropped by the size-aware LRU; Bypasses
	// counts results served but never stored (larger than a shard's
	// budget).
	Evictions, Bypasses int64
	// IdentityHits / IdentityMisses count digest-fast-path probes by
	// outcome: a hit skipped rehashing an unchanged file.
	IdentityHits, IdentityMisses int64
	// Entries and Bytes are the current population and accounted
	// footprint; Budget the configured global byte budget.
	Entries int
	Bytes   int64
	Budget  int64
}

// Snapshot returns the cache's metrics (zero when disabled).
func (c *Cache) Snapshot() Metrics {
	if c == nil {
		return Metrics{}
	}
	m := Metrics{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Coalesced:      c.coalesced.Load(),
		Bypasses:       c.bypasses.Load(),
		IdentityHits:   c.identityHits.Load(),
		IdentityMisses: c.identityMisses.Load(),
		Budget:         c.budget,
	}
	for _, s := range c.shards {
		u := s.Usage()
		m.Entries += u.Entries
		m.Bytes += u.Cost
		m.Evictions += u.Evictions
	}
	return m
}
