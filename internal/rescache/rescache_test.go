package rescache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xmlproj/internal/cache"
	"xmlproj/internal/dtd"
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
		if &entries[i].Bytes()[0] != &entries[0].Bytes()[0] {
			t.Fatalf("caller %d got a different copy of the output", i)
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
}

func TestEvictionKeepsEveryShardUnderBudget(t *testing.T) {
	// Budget sized so each shard retains roughly one key and a few small
	// outputs; a flood of inserts must evict rather than grow.
	const budget = 16 * 2048
	c := New(budget)
	for i := 0; i < 128; i++ {
		key := Key{Doc: DigestBytes([]byte(fmt.Sprintf("doc-%d", i))), Variant: "fp"}
		out := bytes.Repeat([]byte{byte(i)}, 200)
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

// keysInOneShard finds n keys the first level puts in the same shard
// (the shard seed is process-stable).
func keysInOneShard(t *testing.T, c *Cache, n int) []Key {
	t.Helper()
	var keys []Key
	var target *cache.Cache[Key, ref]
	for i := 0; len(keys) < n; i++ {
		if i > 10000 {
			t.Fatalf("could not find colliding keys")
		}
		k := Key{Doc: DigestBytes([]byte(fmt.Sprintf("probe-%d", i))), Variant: "fp"}
		if target == nil {
			target = c.refShard(k)
		}
		if c.refShard(k) == target {
			keys = append(keys, k)
		}
	}
	return keys
}

func fillWith(out []byte) func() (*Entry, error) {
	return func() (*Entry, error) { return NewEntry(bytes.Clone(out), prune.Stats{}), nil }
}

func TestLRUEvictsColdestAndTouchRefreshes(t *testing.T) {
	// White-box: three keys that share a first-level shard sized to hold
	// two, and Get must refresh recency: a, b inserted; a touched; c
	// inserted → b, the coldest, is the one evicted.
	c := New(shardCount * refShare * 2 * refCost(Key{Variant: "fp"}, ref{}))
	keys := keysInOneShard(t, c, 3)
	a, b, cc := keys[0], keys[1], keys[2]
	c.GetOrFill(a, fillWith([]byte("output a")))
	c.GetOrFill(b, fillWith([]byte("output b")))
	if _, ok := c.Get(a); !ok { // touch a: b becomes coldest
		t.Fatalf("a missing before eviction")
	}
	c.GetOrFill(cc, fillWith([]byte("output c")))

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

// TestSharedOutputStoredOnce: projection is many-to-one, and the cache
// charges an output once however many documents prune to it.
func TestSharedOutputStoredOnce(t *testing.T) {
	c := New(1 << 20)
	out := bytes.Repeat([]byte("<kept/>"), 1000)
	const n = 50
	var first *Entry
	for i := 0; i < n; i++ {
		key := Key{Doc: DigestBytes([]byte(fmt.Sprintf("version-%d", i))), Variant: "fp"}
		e, hit, err := c.GetOrFill(key, func() (*Entry, error) {
			return NewEntry(bytes.Clone(out), prune.Stats{ElementsIn: int64(i)}), nil
		})
		if err != nil || hit || !bytes.Equal(e.Bytes(), out) {
			t.Fatalf("fill %d: hit=%v err=%v", i, hit, err)
		}
		if first == nil {
			first = e
		} else if &e.Bytes()[0] != &first.Bytes()[0] {
			t.Fatalf("fill %d kept its own copy of an output already stored", i)
		}
		// Each document keeps its own stats beside the shared bytes.
		if g, ok := c.Get(key); !ok || g.Stats.ElementsIn != int64(i) || &g.Bytes()[0] != &first.Bytes()[0] {
			t.Fatalf("key %d after fill: ok=%v entry=%+v", i, ok, g)
		}
	}
	m := c.Snapshot()
	want := int64(len(out)) + entryOverhead + n*refCost(Key{Variant: "fp"}, ref{})
	if m.Entries != n || m.Bytes != want {
		t.Fatalf("entries=%d bytes=%d, want %d entries and %d bytes (one output + %d keys)", m.Entries, m.Bytes, n, want, n)
	}
	if m.Misses != n || m.Hits != 0 {
		t.Fatalf("a new document must be a miss even when its output is held: %+v", m)
	}
}

// TestGatherEntrySharesWithoutCopy: a fill that returns its Gather has
// it digested in place; the second document with the same pruned output
// gets the first one's bytes, and both outlive their Gathers.
func TestGatherEntrySharesWithoutCopy(t *testing.T) {
	d, err := dtd.ParseString(`<!ELEMENT a (b*)> <!ELEMENT b (#PCDATA)> <!ATTLIST a id CDATA #IMPLIED>`, "a")
	if err != nil {
		t.Fatal(err)
	}
	pi := dtd.NewNameSet("a", "a@id")
	c := New(1 << 20)
	var entries []*Entry
	for _, doc := range []string{`<a id="&lt;"><b>1</b></a>`, `<a id="&lt;"><b>22</b><b/></a>`} {
		g, st, err := prune.StreamGather([]byte(doc), d, pi, prune.StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		e, _, err := c.GetOrFill(Key{Doc: DigestBytes([]byte(doc)), Variant: "fp"}, func() (*Entry, error) {
			return NewGatherEntry(g, st), nil
		})
		g.Close()
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	for i, e := range entries {
		if string(e.Bytes()) != `<a id="&lt;"/>` || &e.Bytes()[0] != &entries[0].Bytes()[0] {
			t.Fatalf("entry %d: %q, shared=%v", i, e.Bytes(), &e.Bytes()[0] == &entries[0].Bytes()[0])
		}
	}
	if entries[0].Stats.ElementsIn == entries[1].Stats.ElementsIn {
		t.Fatalf("stats must stay per document: %+v", entries[1].Stats)
	}
	if m := c.Snapshot(); m.Entries != 2 || m.Bytes != int64(len(entries[0].Bytes()))+entryOverhead+2*refCost(Key{Variant: "fp"}, ref{}) {
		t.Fatalf("footprint: %+v", m)
	}
}

// TestEvictedOutputRefills: the levels evict independently and count no
// references, so shared bytes can go while their keys stay. Every such
// key is then a miss that prunes again and puts the bytes back — never
// a hit on nothing, never another output's bytes.
func TestEvictedOutputRefills(t *testing.T) {
	c := New(shardCount * 4096) // an outs shard holds 3584 bytes
	shared := bytes.Repeat([]byte("s"), 1000)
	keys := make([]Key, 5)
	for i := range keys {
		keys[i] = Key{Doc: DigestBytes([]byte(fmt.Sprintf("referrer-%d", i))), Variant: "fp"}
		c.GetOrFill(keys[i], fillWith(shared))
	}
	// Push the shared bytes out with other outputs of their shard.
	sh := c.outShard(DigestBytes(shared))
	for i := 0; sh.Usage().Evictions == 0; i++ {
		if i > 100000 {
			t.Fatal("could not evict the shared output")
		}
		other := []byte(fmt.Sprintf("%01000d", i))
		if c.outShard(DigestBytes(other)) == sh {
			c.GetOrFill(Key{Doc: DigestBytes(other), Variant: "fp"}, fillWith(other))
		}
	}
	if _, ok := sh.Get(DigestBytes(shared)); ok {
		t.Fatal("the shared output was not the one evicted")
	}
	for i, k := range keys {
		if _, ok := c.Get(k); ok {
			t.Fatalf("key %d: Get hit although its bytes are gone", i)
		}
	}
	for i, k := range keys {
		ran := false
		e, hit, err := c.GetOrFill(k, func() (*Entry, error) { ran = true; return NewEntry(bytes.Clone(shared), prune.Stats{}), nil })
		if err != nil || !bytes.Equal(e.Bytes(), shared) {
			t.Fatalf("key %d: wrong bytes after eviction (err=%v)", i, err)
		}
		// The first referrer refills; the bytes are back for the rest.
		if ran != (i == 0) || hit != (i != 0) {
			t.Fatalf("key %d: ran=%v hit=%v", i, ran, hit)
		}
	}
	checkShardInvariants(t, c)
}

// TestEqualLengthOutputsNeverAlias: the output digest folds the length
// in, but equal lengths still differ by their keyed hash.
func TestEqualLengthOutputsNeverAlias(t *testing.T) {
	c := New(1 << 20)
	for i := 0; i < 200; i++ {
		out := []byte(fmt.Sprintf("<out n=%06d/>", i))
		key := Key{Doc: DigestBytes([]byte(fmt.Sprintf("doc-%d", i))), Variant: "fp"}
		c.GetOrFill(key, fillWith(out))
	}
	for i := 0; i < 200; i++ {
		key := Key{Doc: DigestBytes([]byte(fmt.Sprintf("doc-%d", i))), Variant: "fp"}
		if e, ok := c.Get(key); !ok || string(e.Bytes()) != fmt.Sprintf("<out n=%06d/>", i) {
			t.Fatalf("key %d serves %q", i, e.Bytes())
		}
	}
}

// TestStressBudgetInvariant hammers the cache from many goroutines —
// hits, misses, coalesced fills, declines and evictions across shards,
// with outputs that many keys share (every even size is one output) and
// outputs only one key has — while sampling the global footprint, which
// must never exceed the budget, and checking that no key is ever served
// another key's bytes. Run under -race in CI.
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
				doc := next(64)
				key := Key{Doc: DigestBytes([]byte(fmt.Sprintf("doc-%d", doc))), Variant: "fp"}
				// A document's output is a function of the document: its
				// size (some exceed the per-shard budget) and, for odd
				// sizes, a fill byte of its own.
				size := int(doc*79) % 5000
				fillByte := byte(0)
				if size%2 == 1 {
					fillByte = byte(doc)
				}
				check := func(e *Entry) {
					if e != nil && (len(e.Bytes()) != size || size > 0 && (e.Bytes()[0] != fillByte || e.Bytes()[size-1] != fillByte)) {
						t.Errorf("doc %d served %d bytes of %d, want %d of %d", doc, len(e.Bytes()), e.Bytes()[0], size, fillByte)
					}
				}
				switch next(3) {
				case 0:
					if e, ok := c.Get(key); ok {
						check(&e)
					}
				default:
					e, _, _ := c.GetOrFill(key, func() (*Entry, error) {
						e := NewEntry(bytes.Repeat([]byte{fillByte}, size), prune.Stats{})
						if !c.Cacheable(e.Len()) {
							return nil, nil
						}
						return e, nil
					})
					check(e)
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

// checkShardInvariants verifies that no shard of either level exceeds
// its budget, and that the shards' budgets sum to no more than the
// cache's (the shard's own accounting is internal/cache's to test).
func checkShardInvariants(t *testing.T, c *Cache) {
	t.Helper()
	if total := shardCount * (c.refPerShard + c.outPerShard); total > c.budget {
		t.Errorf("shard budgets sum to %d > budget %d", total, c.budget)
	}
	for i := range c.refs {
		if u := c.refs[i].Usage(); u.Cost > c.refPerShard {
			t.Errorf("key shard %d: %d bytes exceeds its budget %d", i, u.Cost, c.refPerShard)
		}
		if u := c.outs[i].Usage(); u.Cost > c.outPerShard {
			t.Errorf("output shard %d: %d bytes exceeds its budget %d", i, u.Cost, c.outPerShard)
		}
	}
}

// Bytes returns the rendered output. The slice is shared and must be
// treated as read-only.
func (e *Entry) Bytes() []byte { return e.out }
