package rescache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xmlproj/internal/prune"
)

func TestDigestBytes(t *testing.T) {
	a := DigestBytes([]byte("<site><a/></site>"))
	b := DigestBytes([]byte("<site><b/></site>"))
	if a == b {
		t.Fatalf("distinct content produced equal digests: %s", a)
	}
	if a != DigestBytes([]byte("<site><a/></site>")) {
		t.Fatalf("digest is not deterministic within the process")
	}
	if a.IsZero() {
		t.Fatalf("digest of real content is zero")
	}
	if got := len(a.String()); got != 32 {
		t.Fatalf("digest renders to %d hex chars, want 32", got)
	}

	parsed, err := ParseDigest(a.String())
	if err != nil {
		t.Fatalf("ParseDigest(%q): %v", a.String(), err)
	}
	if parsed != a {
		t.Fatalf("ParseDigest round trip: got %s want %s", parsed, a)
	}
	if _, err := ParseDigest("abc"); err == nil {
		t.Fatalf("ParseDigest accepted a short digest")
	}
	if _, err := ParseDigest("zz" + a.String()[2:]); err == nil {
		t.Fatalf("ParseDigest accepted non-hex input")
	}
}

func TestDigestFoldsLength(t *testing.T) {
	// The length occupies the digest's second half: two documents of
	// different sizes can never share a digest, whatever the hash does.
	a := DigestBytes(make([]byte, 100))
	b := DigestBytes(make([]byte, 101))
	if a == b {
		t.Fatalf("different-length inputs share a digest: %s", a)
	}
	if bytes.Equal(a[8:16], b[8:16]) {
		t.Fatalf("length not folded into digest: %s vs %s", a, b)
	}
}

func TestFileIdentity(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(path, []byte("<site/>"), 0o644); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	id, ok := FileIdentity(fi)
	if !ok {
		t.Skip("FileIdentity unsupported on this platform")
	}
	if id.Size != int64(len("<site/>")) {
		t.Fatalf("identity size = %d, want %d", id.Size, len("<site/>"))
	}
	if id.Ino == 0 && id.Dev == 0 {
		t.Fatalf("identity has no device/inode: %+v", id)
	}
	di, err := os.Stat(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := FileIdentity(di); ok {
		t.Fatalf("FileIdentity accepted a directory")
	}
}

func TestDigestForIdentityMemo(t *testing.T) {
	c := New(1 << 20)
	data := []byte("<site><person/></site>")
	id := Identity{Dev: 7, Ino: 42, Size: int64(len(data)), MTimeNanos: 12345}

	d1 := c.DigestFor(data, &id)
	d2 := c.DigestFor(data, &id)
	if d1 != d2 {
		t.Fatalf("memoized digest differs: %s vs %s", d1, d2)
	}
	m := c.Snapshot()
	if m.IdentityMisses != 1 || m.IdentityHits != 1 {
		t.Fatalf("identity memo counters = %d misses / %d hits, want 1/1", m.IdentityMisses, m.IdentityHits)
	}

	// A stale identity (size disagrees with the bytes in hand) must not
	// be trusted or memoized.
	stale := Identity{Dev: 7, Ino: 42, Size: int64(len(data)) + 1, MTimeNanos: 12345}
	if got := c.DigestFor(data, &stale); got != DigestBytes(data) {
		t.Fatalf("stale identity changed the digest")
	}
	if m := c.Snapshot(); m.IdentityMisses != 1 || m.IdentityHits != 1 {
		t.Fatalf("stale identity touched the memo: %+v", m)
	}

	// Nil identity digests directly.
	if got := c.DigestFor(data, nil); got != d1 {
		t.Fatalf("nil-identity digest differs from content digest")
	}
}

func TestGetOrFillSingleFlight(t *testing.T) {
	// Mirrors TestInferCachedSingleFlight: N concurrent cold callers for
	// one key must run exactly one fill; the rest coalesce onto it.
	c := New(1 << 20)
	key := Key{Doc: DigestBytes([]byte("doc")), Variant: "fp"}

	var calls atomic.Int64
	fill := func() (*Entry, error) {
		calls.Add(1)
		time.Sleep(20 * time.Millisecond)
		return NewEntry([]byte("<pruned/>"), prune.Stats{BytesOut: 9}), nil
	}

	const n = 8
	start := make(chan struct{})
	entries := make([]*Entry, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			e, _, err := c.GetOrFill(key, fill)
			if err != nil {
				t.Errorf("GetOrFill: %v", err)
			}
			entries[i] = e
		}(i)
	}
	close(start)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fill ran %d times, want 1", got)
	}
	for i := 1; i < n; i++ {
		if entries[i] != entries[0] {
			t.Fatalf("caller %d got a different entry instance", i)
		}
	}
	m := c.Snapshot()
	if m.Misses != 1 || m.Coalesced != n-1 {
		t.Fatalf("misses=%d coalesced=%d, want 1 and %d", m.Misses, m.Coalesced, n-1)
	}
	if e, hit, _ := c.GetOrFill(key, fill); !hit || !bytes.Equal(e.Bytes(), []byte("<pruned/>")) {
		t.Fatalf("warm lookup missed (hit=%v)", hit)
	}
	if m := c.Snapshot(); m.Hits != 1 {
		t.Fatalf("hits=%d after warm lookup, want 1", m.Hits)
	}
}

func TestGetOrFillErrorNotCached(t *testing.T) {
	c := New(1 << 20)
	key := Key{Doc: DigestBytes([]byte("doc")), Variant: "fp"}
	boom := errors.New("boom")

	var calls int
	if _, _, err := c.GetOrFill(key, func() (*Entry, error) { calls++; return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure must not be cached: the next request retries.
	e, hit, err := c.GetOrFill(key, func() (*Entry, error) { calls++; return NewEntry([]byte("ok"), prune.Stats{}), nil })
	if err != nil || hit || e == nil {
		t.Fatalf("retry after error: e=%v hit=%v err=%v", e, hit, err)
	}
	if calls != 2 {
		t.Fatalf("fill ran %d times, want 2", calls)
	}
}

func TestGetOrFillDeclined(t *testing.T) {
	// fill may return (nil, nil) to keep its result out of the cache
	// (output too large to retain); the decline is counted as a bypass
	// and nothing is stored.
	c := New(1 << 20)
	key := Key{Doc: DigestBytes([]byte("doc")), Variant: "fp"}
	e, hit, err := c.GetOrFill(key, func() (*Entry, error) { return nil, nil })
	if e != nil || hit || err != nil {
		t.Fatalf("declined fill: e=%v hit=%v err=%v", e, hit, err)
	}
	m := c.Snapshot()
	if m.Bypasses != 1 || m.Entries != 0 {
		t.Fatalf("bypasses=%d entries=%d, want 1 and 0", m.Bypasses, m.Entries)
	}
}

func TestCacheable(t *testing.T) {
	c := New(16 * 1024) // perShard = 1 KiB
	if !c.Cacheable(100) {
		t.Fatalf("small output not cacheable")
	}
	if c.Cacheable(2048) {
		t.Fatalf("output above the per-shard budget reported cacheable")
	}
	var nilc *Cache
	if nilc.Cacheable(1) || nilc.Enabled() {
		t.Fatalf("nil cache claims to cache")
	}
}

func TestNilCache(t *testing.T) {
	var c *Cache
	if c := New(0); c != nil {
		t.Fatalf("New(0) should disable the cache")
	}
	if _, ok := c.Get(Key{}); ok {
		t.Fatalf("nil cache hit")
	}
	e, hit, err := c.GetOrFill(Key{}, func() (*Entry, error) { return NewEntry([]byte("x"), prune.Stats{}), nil })
	if err != nil || hit || e == nil || !bytes.Equal(e.Bytes(), []byte("x")) {
		t.Fatalf("nil cache GetOrFill: e=%v hit=%v err=%v", e, hit, err)
	}
	if got := c.Snapshot(); got != (Metrics{}) {
		t.Fatalf("nil cache metrics = %+v", got)
	}
	if c.DigestFor([]byte("d"), nil) != DigestBytes([]byte("d")) {
		t.Fatalf("nil cache DigestFor mismatch")
	}
}

func TestEvictionKeepsEveryShardUnderBudget(t *testing.T) {
	// Budget sized so each shard retains roughly one small entry; a
	// flood of inserts must evict rather than grow.
	const budget = 16 * 512
	c := New(budget)
	for i := 0; i < 128; i++ {
		key := Key{Doc: DigestBytes([]byte(fmt.Sprintf("doc-%d", i))), Variant: "fp"}
		out := bytes.Repeat([]byte("x"), 200)
		if _, _, err := c.GetOrFill(key, func() (*Entry, error) { return NewEntry(out, prune.Stats{}), nil }); err != nil {
			t.Fatal(err)
		}
		if got := c.Snapshot().Bytes; got > budget {
			t.Fatalf("after %d inserts cache holds %d bytes > budget %d", i+1, got, budget)
		}
	}
	m := c.Snapshot()
	if m.Evictions == 0 {
		t.Fatalf("no evictions after overfilling: %+v", m)
	}
	if m.Entries == 0 {
		t.Fatalf("cache emptied itself: %+v", m)
	}
	checkShardInvariants(t, c)
}

func TestLRUEvictsColdestAndTouchRefreshes(t *testing.T) {
	// White-box: find three keys that share a shard (the shard seed is
	// process-stable), size the shard to hold two, and check that Get
	// refreshes recency: a, b inserted; a touched; c inserted → b, the
	// coldest, is the one evicted.
	cost := entryCost(Key{Variant: "fp"}, NewEntry(make([]byte, 100), prune.Stats{}))
	c := New(shardCount * cost * 2)

	keys := make([]Key, 0, 3)
	target := -1
	for i := 0; len(keys) < 3; i++ {
		k := Key{Doc: DigestBytes([]byte(fmt.Sprintf("probe-%d", i))), Variant: "fp"}
		sh := -1
		for j := range c.shards {
			if c.shardOf(k) == c.shards[j] {
				sh = j
				break
			}
		}
		if target == -1 {
			target = sh
		}
		if sh == target {
			keys = append(keys, k)
		}
		if i > 10000 {
			t.Fatalf("could not find colliding keys")
		}
	}
	a, b, cc := keys[0], keys[1], keys[2]
	fillWith := func(tag string) func() (*Entry, error) {
		return func() (*Entry, error) {
			out := make([]byte, 100)
			copy(out, tag)
			return NewEntry(out, prune.Stats{}), nil
		}
	}
	c.GetOrFill(a, fillWith("a"))
	c.GetOrFill(b, fillWith("b"))
	if _, ok := c.Get(a); !ok { // touch a: b becomes coldest
		t.Fatalf("a missing before eviction")
	}
	c.GetOrFill(cc, fillWith("c"))

	if _, ok := c.Get(b); ok {
		t.Fatalf("coldest entry b survived eviction")
	}
	if _, ok := c.Get(a); !ok {
		t.Fatalf("touched entry a was evicted")
	}
	if _, ok := c.Get(cc); !ok {
		t.Fatalf("new entry c was evicted")
	}
	checkShardInvariants(t, c)
}

// TestStressBudgetInvariant hammers the cache from many goroutines —
// hits, misses, coalesced fills, declines and evictions across shards —
// while sampling the global footprint, which must never exceed the
// budget. Run under -race in CI.
func TestStressBudgetInvariant(t *testing.T) {
	const budget = 16 * 4096
	c := New(budget)

	stop := make(chan struct{})
	var samplerErr atomic.Value
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := c.Snapshot().Bytes; got > budget {
				samplerErr.Store(fmt.Errorf("footprint %d exceeds budget %d", got, budget))
				return
			}
		}
	}()

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*2654435761 + 12345
			next := func(n uint64) uint64 {
				rng = rng*6364136223846793005 + 1442695040888963407
				return (rng >> 33) % n
			}
			for i := 0; i < 400; i++ {
				key := Key{Doc: DigestBytes([]byte(fmt.Sprintf("doc-%d", next(64)))), Variant: "fp"}
				size := int(next(5000)) // some entries exceed the per-shard budget
				switch next(3) {
				case 0:
					c.Get(key)
				default:
					c.GetOrFill(key, func() (*Entry, error) {
						e := NewEntry(make([]byte, size), prune.Stats{})
						if !c.Cacheable(e.Len()) {
							return nil, nil
						}
						return e, nil
					})
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	sampler.Wait()
	if err := samplerErr.Load(); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot().Bytes; got > budget {
		t.Fatalf("final footprint %d exceeds budget %d", got, budget)
	}
	checkShardInvariants(t, c)
	m := c.Snapshot()
	if m.Misses == 0 || m.Hits == 0 {
		t.Fatalf("stress exercised nothing: %+v", m)
	}
}

// checkShardInvariants verifies that no shard exceeds the per-shard
// budget (the shard's own accounting is internal/cache's to test).
func checkShardInvariants(t *testing.T, c *Cache) {
	t.Helper()
	for i, s := range c.shards {
		if u := s.Usage(); u.Cost > c.perShard {
			t.Errorf("shard %d: %d bytes exceeds per-shard budget %d", i, u.Cost, c.perShard)
		}
	}
}
