package engine

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xmlproj/internal/prune"
	"xmlproj/internal/rescache"
)

const cachedDoc = `<bib><book><title>Projection</title><author>B</author><year>2006</year></book></bib>`

// memSource is an in-memory batch source that takes the zero-copy
// bytes path.
type memSource struct {
	data []byte
	off  int
}

func (m *memSource) Read(p []byte) (int, error) {
	n := copy(p, m.data[m.off:])
	m.off += n
	if n == 0 {
		return 0, errEOF
	}
	return n, nil
}

var errEOF = errStr("eof")

type errStr string

func (e errStr) Error() string { return string(e) }

func (m *memSource) InputBytes() []byte       { return m.data }
func (m *memSource) InputSize() (int64, bool) { return int64(len(m.data)), true }

// TestCachedGatherSingleFlight mirrors TestInferCachedSingleFlight one
// layer down: N concurrent cold CachedGather calls for one key run
// exactly one prune; the leader keeps the pooled Gather, the rest share
// the cached entry, and every caller sees identical bytes.
func TestCachedGatherSingleFlight(t *testing.T) {
	d := bib(t)
	pr := titleProjector(t, d)
	e := New(Options{ResultCacheBytes: 1 << 20})
	key := rescache.Key{Doc: rescache.DigestBytes([]byte(cachedDoc)), Variant: "fp"}

	var calls atomic.Int64
	fill := func() (*prune.Gather, prune.Stats, error) {
		calls.Add(1)
		time.Sleep(20 * time.Millisecond) // hold the flight open so others pile on
		return prune.StreamGather([]byte(cachedDoc), d, pr.Names, prune.StreamOptions{})
	}

	want, _, err := prune.StreamGather([]byte(cachedDoc), d, pr.Names, prune.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := want.AppendTo(nil)
	want.Close()

	const n = 8
	start := make(chan struct{})
	outs := make([][]byte, n)
	hits := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			entry, g, _, hit, err := e.CachedGather(key, fill)
			if err != nil {
				t.Errorf("CachedGather: %v", err)
				return
			}
			hits[i] = hit
			if g != nil {
				outs[i] = g.AppendTo(nil)
				g.Close()
			} else {
				outs[i] = entry.AppendTo(nil)
			}
		}(i)
	}
	close(start)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fill ran %d times, want 1", got)
	}
	var hitCount int
	for i := range outs {
		if !bytes.Equal(outs[i], wantBytes) {
			t.Fatalf("caller %d output differs:\n got %q\nwant %q", i, outs[i], wantBytes)
		}
		if hits[i] {
			hitCount++
		}
	}
	if hitCount != n-1 {
		t.Fatalf("%d callers reported hits, want %d (one leader)", hitCount, n-1)
	}
	m := e.Metrics().ResultCache
	if m.Misses != 1 || m.Coalesced != n-1 {
		t.Fatalf("result cache misses=%d coalesced=%d, want 1 and %d", m.Misses, m.Coalesced, n-1)
	}

	// Warm lookup: the entry survives, no new fill.
	entry, g, _, hit, err := e.CachedGather(key, fill)
	if err != nil || !hit || g != nil || entry == nil {
		t.Fatalf("warm CachedGather: entry=%v g=%v hit=%v err=%v", entry, g, hit, err)
	}
	if !bytes.Equal(entry.AppendTo(nil), wantBytes) {
		t.Fatalf("warm entry bytes differ")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("warm lookup ran fill (%d calls)", got)
	}
}

// TestCachedGatherUncacheableOutput: an output above the per-shard
// budget is served but never stored; later callers prune again.
func TestCachedGatherUncacheableOutput(t *testing.T) {
	d := bib(t)
	pr := titleProjector(t, d)
	// Budget so small every real output exceeds a shard's slice.
	e := New(Options{ResultCacheBytes: 16})
	key := rescache.Key{Doc: rescache.DigestBytes([]byte(cachedDoc)), Variant: "fp"}

	var calls atomic.Int64
	fill := func() (*prune.Gather, prune.Stats, error) {
		calls.Add(1)
		return prune.StreamGather([]byte(cachedDoc), d, pr.Names, prune.StreamOptions{})
	}
	for i := 0; i < 2; i++ {
		entry, g, _, hit, err := e.CachedGather(key, fill)
		if err != nil {
			t.Fatal(err)
		}
		if hit || entry != nil || g == nil {
			t.Fatalf("round %d: uncacheable output: entry=%v hit=%v g=%v", i, entry, hit, g)
		}
		g.Close()
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("fill ran %d times, want 2 (nothing cached)", got)
	}
	if m := e.Metrics().ResultCache; m.Entries != 0 {
		t.Fatalf("uncacheable output was stored: %+v", m)
	}
}

// TestBatchIgnoresResultCache: a batch is prune.Stream per job whatever
// the engine was built with. Two byte-identical in-memory inputs (the
// only sources the old cached path took) produce two correct outputs,
// and an engine with a result cache — what the benchmark's one-shot
// xmlprune seam constructs — behaves exactly as a plain one: same
// bytes, same counters, nothing digested, nothing stored.
func TestBatchIgnoresResultCache(t *testing.T) {
	d := bib(t)
	pr := titleProjector(t, d)
	var wb bytes.Buffer
	if _, err := prune.StreamBytes(&wb, []byte(cachedDoc), d, pr.Names, prune.StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	want := wb.String()
	for _, budget := range []int64{0, 1 << 20} {
		e := New(Options{ResultCacheBytes: budget})
		var a, b bytes.Buffer
		jobs := []Job{
			{Name: "a", Src: &memSource{data: []byte(cachedDoc)}, Dst: &a},
			{Name: "b", Src: &memSource{data: []byte(cachedDoc)}, Dst: &b},
		}
		results, agg, err := e.PruneBatch(context.Background(), pr, jobs, BatchOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != want || b.String() != want {
			t.Fatalf("budget %d: outputs %q and %q, want %q twice", budget, a.String(), b.String(), want)
		}
		if results[0].Stats != results[1].Stats || agg.Pruned != 2 {
			t.Fatalf("budget %d: results %+v, agg %+v", budget, results, agg)
		}
		m := e.Metrics()
		if m.DocsPruned != 2 || m.BytesIn != 2*int64(len(cachedDoc)) {
			t.Fatalf("budget %d: docs pruned = %d, bytes in = %d", budget, m.DocsPruned, m.BytesIn)
		}
		if rc := m.ResultCache; rc.Hits+rc.Misses+rc.Coalesced != 0 || rc.Entries != 0 {
			t.Fatalf("budget %d: the batch touched the result cache: %+v", budget, rc)
		}
	}
}
