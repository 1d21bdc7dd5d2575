// Package rescache is the content-addressed cache of pruned outputs:
// the piece that makes repeat (document, projector) pairs — the
// workload the paper's amortization argument assumes — cost a digest
// and a map probe instead of a full scan.
//
// Keys are (document digest, variant), where the variant folds in the
// projection fingerprint, the validate mode and any engine-visible
// option that changes the answer. Options that do not change it — the
// token cap, the sink — are deliberately NOT part of it: one output
// serves them all.
//
// The cache has two levels, because projection is many-to-one:
// documents that differ only outside π have one pruned output (and
// Thm. 4.5 says that output is all the query needs), so versions of a
// document that change where the projector does not look should not
// each pay for a copy of it. The first level maps a key to the digest
// of its output and the prune's stats; the second maps an output digest
// to the bytes, stored once however many keys name them. Both are
// instances of internal/cache. There are no reference counts: the two
// levels evict independently, and a key whose bytes are gone is a miss
// that prunes again and puts them back.
//
// Stored bytes are materialized — an owned copy made when an output is
// first seen — so the pooled span-gather buffers the pruner works in
// can be released immediately; nothing in the cache aliases pooled
// state. Eviction is size-aware LRU per shard under a global byte
// budget, and concurrent cold requests for one key are single-flight
// deduplicated: N callers, one prune.
//
// Defended by: `serve_warm`, `rescache.hit_us` and `engine.gather_hit_us_d1`.
package rescache

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/maphash"
	"io"
	"sync/atomic"

	"xmlproj/internal/cache"
	"xmlproj/internal/prune"
	"xmlproj/internal/scan"
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

// docSeed keys DigestBytes and Digester.
var docSeed = maphash.MakeSeed()

// DigestBytes digests document content held whole: one pass at memory
// bandwidth, an order of magnitude cheaper than the scan it stands in
// for, which is what makes "serve repeat prunes in O(digest) time" a
// win. Content that arrives in pieces is digested by a Digester as it
// arrives, with no second pass; the two agree for every split.
func DigestBytes(b []byte) Digest {
	var d Digest
	binary.LittleEndian.PutUint64(d[0:8], maphash.Bytes(docSeed, b))
	binary.LittleEndian.PutUint64(d[8:16], uint64(len(b)))
	return d
}

// Digester is DigestBytes in streaming form: Sum is DigestBytes of the
// concatenation of everything written since Reset, however it was cut
// (maphash.Bytes is SetSeed, Write and Sum64). A zero Digester must be
// Reset before use, and it allocates nothing.
type Digester struct {
	h maphash.Hash
	n uint64
}

// Reset starts a new digest.
func (d *Digester) Reset() {
	d.h.SetSeed(docSeed)
	d.n = 0
}

// Write adds p to the digested content. It never fails.
func (d *Digester) Write(p []byte) (int, error) {
	d.n += uint64(len(p))
	return d.h.Write(p)
}

// Sum is the digest of the content written since Reset.
func (d *Digester) Sum() Digest {
	var s Digest
	binary.LittleEndian.PutUint64(s[0:8], d.h.Sum64())
	binary.LittleEndian.PutUint64(s[8:16], d.n)
	return s
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

// Entry is one pruned output: the rendered bytes — immutable, and
// shared with the cache and with every entry of the same output — plus
// the stats of the prune that produced them.
type Entry struct {
	out   []byte
	src   output // what a fill returned, until the cache has looked at it
	Stats prune.Stats
}

// output is a fill's result as the cache takes it: something to digest
// and, if those bytes are not held yet, to render once. *scan.SpanList
// is one.
type output interface {
	Len() int64
	io.WriterTo
}

// rendered is an output that is bytes already.
type rendered []byte

func (b rendered) Len() int64 { return int64(len(b)) }

func (b rendered) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(b)
	return int64(n), err
}

// NewGatherEntry wraps an output still held as sl's spans over its
// input, for a fill to return: the cache digests the spans where they
// lie and copies them only if it does not already hold those bytes. sl
// must stay open until GetOrFill returns; the entry does not use it
// afterwards.
func NewGatherEntry(sl *scan.SpanList, stats prune.Stats) *Entry {
	return &Entry{src: sl, Stats: stats}
}

// NewEntry is NewGatherEntry for an output rendered already. No prune
// route fills with one.
//
// Deprecated: kept only because benchmark/seams.go:264 calls it.
func NewEntry(out []byte, stats prune.Stats) *Entry {
	return &Entry{src: rendered(out), Stats: stats}
}

// Len is the rendered output size in bytes.
func (e *Entry) Len() int64 { return int64(len(e.out)) }

// WriteTo writes the rendered output to w (io.WriterTo).
func (e *Entry) WriteTo(w io.Writer) (int64, error) { return rendered(e.out).WriteTo(w) }

// digest identifies a fill's output exactly as DigestBytes would
// identify its rendered bytes; a span list is hashed span by span, uncopied.
func (e *Entry) digest() Digest {
	var d Digester
	d.Reset()
	e.src.WriteTo(&d) // a Digester never fails a Write
	return d.Sum()
}

// own renders a fill's output into bytes of the entry's own.
func (e *Entry) own() {
	buf := bytes.NewBuffer(make([]byte, 0, e.src.Len()))
	e.src.WriteTo(buf) // nor does a Buffer
	e.out, e.src = buf.Bytes(), nil
}

// ref is what the first level stores for a key: which output, and the
// stats of the prune that found it.
type ref struct {
	out   Digest
	stats prune.Stats
}

// entryOverhead approximates the bookkeeping cost of one stored item at
// either level (ring entry, map slot, key and value headers), charged
// against the byte budget alongside the variant or the output bytes.
const entryOverhead = 128

func refCost(key Key, _ ref) int64     { return int64(len(key.Variant)) + entryOverhead }
func outCost(_ Digest, b []byte) int64 { return int64(len(b)) + entryOverhead }

// shardCount is the fixed shard fan-out (power of two). Sixteen
// mutexes keep hit-path contention negligible at server concurrency
// without fragmenting the byte budget into uselessly small slices.
const shardCount = 16

// Cache is a sharded, byte-budgeted, content-addressed cache of pruned
// outputs. Safe for concurrent use. A nil *Cache is valid and disabled:
// Get always misses and GetOrFill degenerates to calling fill.
type Cache struct {
	// refs and outs are the two levels, each sharded, each shard an
	// instance under its own slice of the budget — refPerShard and
	// outPerShard — so the global footprint never exceeds
	// shardCount × (refPerShard + outPerShard) ≤ budget. An output is
	// charged once, to the one outs shard its digest selects.
	refs        [shardCount]*cache.Cache[Key, ref]
	outs        [shardCount]*cache.Cache[Digest, []byte]
	refPerShard int64
	outPerShard int64
	budget      int64

	hits, misses, coalesced atomic.Int64
	bypasses                atomic.Int64
}

// refShare is the part of the budget the first level gets: an eighth.
// A key costs ~150 bytes, so at the default 256 MiB that is 200 000
// documents naming 224 MiB of outputs. Keys run out first only when the
// average distinct output is under about a kilobyte — and a key evicted
// early costs a prune, never a wrong answer.
const refShare = 8

// New returns a cache with the given global byte budget, or nil (a
// valid, disabled cache) when the budget is not positive.
func New(budget int64) *Cache {
	if budget <= 0 {
		return nil
	}
	perShard := budget / shardCount
	c := &Cache{
		budget:      budget,
		refPerShard: perShard / refShare,
	}
	c.outPerShard = perShard - c.refPerShard
	// Traffic for both levels: every sized xmlprojd POST on the gather
	// route (Engine.PruneGatherDigest) and the body-free HEAD / 304
	// probes. A hit is 0.05 µs past the digest (rescache.hit_us) and the
	// fill it saves is a prune: serve_warm 1.29 ms an op against
	// serve_cold 4.46 ms. Nothing else is keyed here — a batch prunes
	// different documents and never asks.
	for i := range c.refs {
		c.refs[i] = cache.New(c.refPerShard, refCost)
		c.outs[i] = cache.New(c.outPerShard, outCost)
	}
	return c
}

// Enabled reports whether the cache exists.
func (c *Cache) Enabled() bool { return c != nil }

// Cacheable reports whether an output of n bytes can be retained at
// all: outputs above a shard's budget are served but never stored —
// copying them out would only thrash the LRU.
func (c *Cache) Cacheable(n int64) bool {
	return c != nil && n+entryOverhead <= c.outPerShard
}

// Both levels spread by their digest's own hash bits, which are keyed
// with a seed no client knows. A client can name a document digest of
// its choosing only where nothing is stored under it (HEAD, a body-free
// revalidation); what is stored is keyed by digests computed here.
func (c *Cache) refShard(key Key) *cache.Cache[Key, ref] {
	return c.refs[key.Doc[0]&(shardCount-1)]
}

func (c *Cache) outShard(d Digest) *cache.Cache[Digest, []byte] {
	return c.outs[d[1]&(shardCount-1)]
}

// Get probes the cache without filling: a peek for HEAD-style lookups.
// It refreshes the LRU position at both levels but moves no hit/miss
// counters — a probe that finds nothing did not cost a prune.
func (c *Cache) Get(key Key) (Entry, bool) {
	if c == nil {
		return Entry{}, false
	}
	r, ok := c.refShard(key).Get(key)
	if !ok {
		return Entry{}, false
	}
	return c.entryOf(r)
}

// entryOf resolves a first-level hit to its bytes; false when they have
// been evicted since.
func (c *Cache) entryOf(r ref) (Entry, bool) {
	out, ok := c.outShard(r.out).Get(r.out)
	return Entry{out: out, Stats: r.stats}, ok
}

// hold gives a filled entry the cache's copy of its output — the one
// already stored under its digest, in which case a span list's spans are
// never copied at all, or the one stored now — and reports the ref to
// keep. Two outputs are taken for the same bytes when their keyed
// 64-bit hashes and their lengths agree: the argument Digest makes for
// documents, on which serving any cached byte already rests, so no
// compare is made. An output too large to store is left with the
// entry, owned, and ok is false.
func (c *Cache) hold(e *Entry) (r ref, ok bool) {
	if !c.Cacheable(e.src.Len()) {
		e.own()
		return ref{}, false
	}
	r = ref{out: e.digest(), stats: e.Stats}
	out, _, err := c.outShard(r.out).GetOrFill(r.out, func() ([]byte, bool, error) {
		e.own()
		return e.out, true, nil
	})
	if err != nil { // the store this one waited for panicked
		e.own()
		return ref{}, false
	}
	e.out, e.src = out, nil
	return r, true
}

// GetOrFill returns the entry for key, running fill on a miss with
// single-flight deduplication: one caller fills, concurrent callers
// for the same key block and share the entry (hit=true for them) or
// the error (shared but never cached, so a later request retries).
// fill may return (nil, nil) to decline caching — its caller keeps
// whatever it produced privately, and blocked waiters get (nil, false,
// nil) and should fill for themselves. An entry larger than a shard's
// budget is declined on fill's behalf. A key whose output bytes were
// evicted from under it fills again, outside the single flight.
func (c *Cache) GetOrFill(key Key, fill func() (*Entry, error)) (*Entry, bool, error) {
	if c == nil {
		e, err := fill()
		if e != nil {
			e.own()
		}
		return e, false, err
	}
	var filled *Entry
	run := func() (ref, bool, error) {
		c.misses.Add(1)
		e, err := fill()
		if err != nil || e == nil {
			if err == nil {
				c.bypasses.Add(1)
			}
			return ref{}, false, err
		}
		filled = e
		r, ok := c.hold(e)
		if !ok {
			c.bypasses.Add(1)
		}
		return r, ok, nil
	}
	r, outcome, err := c.refShard(key).GetOrFill(key, run)
	switch {
	case outcome == cache.Filled:
		return filled, false, err
	case outcome == cache.Declined || err != nil:
		c.coalesced.Add(1)
		return nil, false, err
	}
	e, ok := c.entryOf(r)
	if !ok {
		_, _, err := run()
		return filled, false, err
	}
	if outcome == cache.Hit {
		c.hits.Add(1)
	} else {
		c.coalesced.Add(1)
	}
	return &e, true, nil
}

// Metrics is a point-in-time snapshot of the cache's counters.
type Metrics struct {
	// Hits counts lookups served from a cached entry, Misses lookups
	// that ran a fill, Coalesced callers that piggybacked on another
	// caller's in-flight fill.
	Hits, Misses, Coalesced int64
	// Evictions counts keys and outputs dropped by the size-aware LRU;
	// Bypasses counts results served but never stored (larger than a
	// shard's budget).
	Evictions, Bypasses int64
	// Entries is the number of keys held and Bytes the accounted
	// footprint of both levels — an output counts once however many
	// keys share it; Budget is the configured global byte budget.
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
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Bypasses:  c.bypasses.Load(),
		Budget:    c.budget,
	}
	for i := range c.refs {
		ru, ou := c.refs[i].Usage(), c.outs[i].Usage()
		m.Entries += ru.Entries
		m.Bytes += ru.Cost + ou.Cost
		m.Evictions += ru.Evictions + ou.Evictions
	}
	return m
}
