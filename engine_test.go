package xmlproj

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xmlproj/internal/core"
	"xmlproj/internal/dtd"
	"xmlproj/internal/xmark"
)

// TestEngineInferCachedConcurrent: 8 concurrent InferCached calls for
// the same query bunch perform exactly one inference; a warm cache
// answers a second burst without inferring at all.
func TestEngineInferCachedConcurrent(t *testing.T) {
	d, _ := apiSetup(t)
	eng := NewEngine(EngineOptions{})
	q1, err := CompileXPath("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := Compile("for $b in /bib/book return $b/author")
	if err != nil {
		t.Fatal(err)
	}

	const N = 8
	burst := func() {
		var wg sync.WaitGroup
		for i := 0; i < N; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p, err := eng.InferCached(d, Materialized, q1, q2)
				if err != nil {
					t.Error(err)
					return
				}
				if !p.Has("title") || !p.Has("author") {
					t.Errorf("projector incomplete: %v", p.Names())
				}
			}()
		}
		wg.Wait()
	}

	burst()
	m := eng.Metrics()
	if m.Inferences != 1 {
		t.Fatalf("cold burst of %d ran %d inferences, want 1 (metrics %+v)", N, m.Inferences, m)
	}
	if m.CacheMisses != 1 || m.CacheHits+m.Coalesced != N-1 {
		t.Fatalf("cold burst metrics: %+v", m)
	}

	burst() // warm
	m = eng.Metrics()
	if m.Inferences != 1 {
		t.Fatalf("warm cache re-inferred: %+v", m)
	}
	if m.CacheHits < N {
		t.Fatalf("warm burst not served from cache: %+v", m)
	}

	// The bunch is canonicalised: same queries, different order and a
	// duplicate — still the same cache entry.
	if _, err := eng.InferCached(d, Materialized, q2, q1, q2); err != nil {
		t.Fatal(err)
	}
	if m = eng.Metrics(); m.Inferences != 1 {
		t.Fatalf("permuted bunch missed the cache: %+v", m)
	}
	// A different mode is a different workload.
	if _, err := eng.InferCached(d, NodesOnly, q1, q2); err != nil {
		t.Fatal(err)
	}
	if m = eng.Metrics(); m.Inferences != 2 {
		t.Fatalf("mode not part of the key: %+v", m)
	}
	if m.CacheEntries != 2 {
		t.Fatalf("CacheEntries = %d, want 2", m.CacheEntries)
	}
}

// TestInferCachedSingleFlight: N concurrent requests for one cold key
// run exactly one inference; everyone gets the same projector, and a
// warm burst is answered from the cache.
func TestInferCachedSingleFlight(t *testing.T) {
	d, _ := apiSetup(t)
	q, err := CompileXPath("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineOptions{})
	key := inferKey{schema: "s", bunch: "b"}

	var calls atomic.Int64
	slow := func() (*core.Projector, error) {
		calls.Add(1)
		time.Sleep(20 * time.Millisecond) // hold the flight open so others pile on
		p, err := d.Infer(Materialized, q)
		if err != nil {
			return nil, err
		}
		return p.pr, nil
	}

	const N = 8
	var wg sync.WaitGroup
	prs := make([]*core.Projector, N)
	errs := make([]error, N)
	start := make(chan struct{})
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			prs[i], errs[i] = eng.inferCached(key, slow)
		}(i)
	}
	close(start)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("inference ran %d times for one key, want 1", got)
	}
	for i := 0; i < N; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if prs[i] != prs[0] {
			t.Fatalf("caller %d got a different projector instance", i)
		}
	}
	m := eng.Metrics()
	if m.Inferences != 1 || m.CacheMisses != 1 {
		t.Fatalf("metrics after cold burst: %+v", m)
	}
	if m.Coalesced != N-1 {
		t.Fatalf("Coalesced = %d, want %d", m.Coalesced, N-1)
	}

	// Warm cache: another concurrent burst performs zero inferences.
	var wg2 sync.WaitGroup
	for i := 0; i < N; i++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			if _, err := eng.inferCached(key, slow); err != nil {
				t.Error(err)
			}
		}()
	}
	wg2.Wait()
	m = eng.Metrics()
	if m.Inferences != 1 {
		t.Fatalf("warm cache still inferred: %+v", m)
	}
	if m.CacheHits != N {
		t.Fatalf("CacheHits = %d, want %d", m.CacheHits, N)
	}
}

// TestInferCachedSharesCompiledTable: concurrent cold requests for one
// workload get one projector from the inference cache, and their
// concurrent first use of it compiles one table.
func TestInferCachedSharesCompiledTable(t *testing.T) {
	d, _ := apiSetup(t)
	q, err := CompileXPath("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineOptions{})

	var wg sync.WaitGroup
	got := make([]*dtd.Projection, 32)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := eng.InferCached(d, Materialized, q)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = p.pr.Compiled()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] == nil || got[i] != got[0] {
			t.Fatal("concurrent callers saw distinct projections")
		}
	}
	if m := eng.Metrics(); m.Inferences != 1 {
		t.Fatalf("want exactly one inference, got %d", m.Inferences)
	}
}

// TestInferCachedErrorNotCached: a failed inference is reported but not
// cached, so the next request retries. No compiled query fails
// inference — compilation rewrites every axis the rules do not cover —
// so the failure is handed to the cache below InferCached.
func TestInferCachedErrorNotCached(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	var calls atomic.Int64
	fail := func() (*core.Projector, error) {
		calls.Add(1)
		return nil, errors.New("boom")
	}
	for i := 0; i < 2; i++ {
		if _, err := eng.inferCached(inferKey{schema: "s", bunch: "bad"}, fail); err == nil {
			t.Fatalf("call %d: the failed inference reported success", i)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("failed inference not retried: %d calls", calls.Load())
	}
	if n := eng.Metrics().CacheEntries; n != 0 {
		t.Fatalf("error cached: %d entries", n)
	}
}

// TestInferCacheEviction: the projector cache stays bounded at 128
// workloads and evicts the cold end.
func TestInferCacheEviction(t *testing.T) {
	d, _ := apiSetup(t)
	eng := NewEngine(EngineOptions{})
	infer := func(i int) {
		t.Helper()
		q, err := CompileXPath(fmt.Sprintf("/bib/book[%d]/title", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.InferCached(d, Materialized, q); err != nil {
			t.Fatal(err)
		}
	}
	const n = inferCacheSize + 2
	for i := 0; i < n; i++ {
		infer(i)
	}
	if got := eng.Metrics().CacheEntries; got != inferCacheSize {
		t.Fatalf("cache size = %d, want %d", got, inferCacheSize)
	}
	// Workloads 0 and 1 were evicted; the rest remain.
	before := eng.Metrics().Inferences
	infer(n - 1)
	infer(0)
	if got := eng.Metrics().Inferences - before; got != 1 {
		t.Fatalf("want 1 re-inference (evicted workload), got %d", got)
	}
	if m := eng.Metrics(); m.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3: %+v", m.Evictions, m)
	}
}

// TestEngineSchemaKeyedCache: structurally identical schemas share a
// cache entry; a different schema does not.
func TestEngineSchemaKeyedCache(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	q, err := CompileXPath("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := apiSetup(t)
	d2, err := ParseDTDString(apiDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.InferCached(d1, Materialized, q); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.InferCached(d2, Materialized, q); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.Inferences != 1 {
		t.Fatalf("identical schema re-inferred: %+v", m)
	}
	d3, err := ParseDTDString(`<!ELEMENT bib (book*)><!ELEMENT book (title)><!ELEMENT title (#PCDATA)>`, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.InferCached(d3, Materialized, q); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.Inferences != 2 {
		t.Fatalf("different schema hit the cache: %+v", m)
	}
}

// titleProjector infers //book/title over the api DTD.
func titleProjector(t *testing.T) *Projector {
	t.Helper()
	d, _ := apiSetup(t)
	q, err := CompileXPath("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Infer(Materialized, q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// batchJobs returns n small documents, job i titled Ti, with their
// output buffers.
func batchJobs(n int) ([]BatchJob, []*bytes.Buffer) {
	jobs := make([]BatchJob, n)
	outs := make([]*bytes.Buffer, n)
	for i := range jobs {
		outs[i] = &bytes.Buffer{}
		doc := fmt.Sprintf(`<bib><book isbn="%d"><title>T%d</title><author>A%d</author></book></bib>`, i, i, i)
		jobs[i] = BatchJob{Name: fmt.Sprintf("doc%d", i), Src: strings.NewReader(doc), Dst: outs[i]}
	}
	return jobs, outs
}

// TestEnginePruneBatch: a validating batch prunes every document with a
// projector from the inference cache.
func TestEnginePruneBatch(t *testing.T) {
	d, _ := apiSetup(t)
	eng := NewEngine(EngineOptions{})
	q, err := CompileXPath("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.InferCached(d, Materialized, q)
	if err != nil {
		t.Fatal(err)
	}
	const n = 9
	jobs, outs := batchJobs(n)
	results, agg, err := eng.PruneBatch(context.Background(), p, jobs, BatchOptions{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.Name, r.Err)
		}
		if want := fmt.Sprintf("<title>T%d</title>", i); !strings.Contains(outs[i].String(), want) {
			t.Fatalf("job %d output = %s", i, outs[i].String())
		}
	}
	if agg.Pruned != n || agg.Failed != 0 || agg.Skipped != 0 {
		t.Fatalf("aggregate: %+v", agg)
	}
	if agg.BytesIn == 0 || agg.BytesOut == 0 || agg.MaxDepth != 3 {
		t.Fatalf("aggregate stats: %+v", agg)
	}
}

// TestPruneBatch: every document is pruned, results stay in job order,
// stats aggregate.
func TestPruneBatch(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	p := titleProjector(t)
	const n = 20
	jobs, outs := batchJobs(n)
	results, agg, err := eng.PruneBatch(context.Background(), p, jobs, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var bytesIn int64
	for i, r := range results {
		if r.Name != fmt.Sprintf("doc%d", i) {
			t.Fatalf("result %d out of order: %s", i, r.Name)
		}
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.Name, r.Err)
		}
		if want := fmt.Sprintf("<bib><book><title>T%d</title></book></bib>", i); outs[i].String() != want {
			t.Fatalf("job %d output = %s, want %s", i, outs[i].String(), want)
		}
		bytesIn += r.BytesIn
	}
	if agg.Pruned != n || agg.Failed != 0 || agg.Skipped != 0 {
		t.Fatalf("aggregate: %+v", agg)
	}
	if agg.ElementsOut != n*3 || agg.BytesIn == 0 || agg.BytesIn != bytesIn || agg.BytesOut == 0 || agg.MaxDepth != 3 {
		t.Fatalf("aggregate stats: %+v", agg)
	}
}

// TestProjectionCache: a batch compiles π against the symbol table once,
// on the projector; later batches for the same projector reuse that
// table, and asking for it again allocates nothing.
func TestProjectionCache(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	p := titleProjector(t)
	jobs, _ := batchJobs(8)
	if _, _, err := eng.PruneBatch(context.Background(), p, jobs, BatchOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	table := p.pr.Compiled()
	jobs, outs := batchJobs(8)
	if _, _, err := eng.PruneBatch(context.Background(), p, jobs, BatchOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if p.pr.Compiled() != table {
		t.Fatal("second batch compiled π again")
	}
	if got := outs[3].String(); got != `<bib><book><title>T3</title></book></bib>` {
		t.Fatalf("second batch output = %q", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.pr.Compiled() }); allocs != 0 {
		t.Fatalf("a compiled π costs %v allocations after first use, want 0", allocs)
	}
}

// TestPruneBatchKeepGoing: without FailFast a bad document fails alone;
// every other job still completes, and the batch's error names the job
// and the package it came from.
func TestPruneBatchKeepGoing(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	p := titleProjector(t)
	jobs, outs := batchJobs(6)
	jobs[2].Src = strings.NewReader(`<bib><unknown/></bib>`)
	results, agg, err := eng.PruneBatch(context.Background(), p, jobs, BatchOptions{Workers: 2})
	if err == nil {
		t.Fatal("batch error swallowed")
	}
	if results[2].Err == nil {
		t.Fatal("bad job reported success")
	}
	if want := fmt.Sprintf("xmlproj: job %s: %v", jobs[2].Name, results[2].Err); err.Error() != want {
		t.Fatalf("batch error %q, want %q", err, want)
	}
	if agg.Pruned != 5 || agg.Failed != 1 || agg.Skipped != 0 {
		t.Fatalf("aggregate outcome: %+v", agg)
	}
	for i := range jobs {
		if i == 2 {
			continue
		}
		if results[i].Err != nil || !strings.Contains(outs[i].String(), "<title>") {
			t.Fatalf("job %d did not complete: err=%v out=%s", i, results[i].Err, outs[i].String())
		}
	}
}

// TestPruneBatchFailFast: with FailFast the remaining jobs are skipped
// and marked with the cancellation error.
func TestPruneBatchFailFast(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	p := titleProjector(t)
	const n = 64
	jobs, _ := batchJobs(n)
	jobs[0].Src = strings.NewReader(`not xml at all <<<`)
	results, agg, err := eng.PruneBatch(context.Background(), p, jobs, BatchOptions{Workers: 1, FailFast: true})
	if err == nil {
		t.Fatal("batch error swallowed")
	}
	if results[0].Err == nil {
		t.Fatal("bad job reported success")
	}
	if agg.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", agg.Failed)
	}
	if agg.Skipped == 0 {
		t.Fatalf("fail-fast skipped nothing: %+v", agg)
	}
	for _, r := range results[1:] {
		if r.Err != nil && r.Err != context.Canceled {
			t.Fatalf("job %s: unexpected error %v", r.Name, r.Err)
		}
	}
}

// TestPruneBatchContextCancel: a cancelled context stops the batch.
func TestPruneBatchContextCancel(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	p := titleProjector(t)
	jobs, _ := batchJobs(16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the batch starts
	results, agg, err := eng.PruneBatch(ctx, p, jobs, BatchOptions{Workers: 4})
	if err == nil {
		t.Fatal("cancelled batch reported success")
	}
	if agg.Pruned != 0 {
		t.Fatalf("cancelled batch pruned %d jobs", agg.Pruned)
	}
	for _, r := range results {
		if r.Err == nil {
			t.Fatalf("job %s ran after cancellation", r.Name)
		}
	}
}

// cancelAfterReader serves its document, then cancels the batch context
// instead of returning EOF — the next read through the countingReader
// surfaces the context error mid-document.
type cancelAfterReader struct {
	data   []byte
	cancel context.CancelFunc
}

func (r *cancelAfterReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		r.cancel()
		return 0, nil // countingReader reports ctx.Err() on the retry
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestBatchWrappedContextClassifiedSkipped: a job aborted mid-read by
// cancellation carries the context error wrapped by the pruner
// ("prune: context canceled"), not the bare sentinel. It must count as
// Skipped, not Failed.
func TestBatchWrappedContextClassifiedSkipped(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	p := titleProjector(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := []BatchJob{{
		Name: "aborted",
		Src:  &cancelAfterReader{data: []byte(`<bib><book><title>T`), cancel: cancel},
		Dst:  &bytes.Buffer{},
	}}
	results, agg, err := eng.PruneBatch(ctx, p, jobs, BatchOptions{Workers: 1})
	if err == nil {
		t.Fatal("cancelled batch reported success")
	}
	rerr := results[0].Err
	if rerr == nil {
		t.Fatal("aborted job reported success")
	}
	if !errors.Is(rerr, context.Canceled) {
		t.Fatalf("job error %v does not unwrap to context.Canceled", rerr)
	}
	if rerr == context.Canceled {
		t.Fatalf("job error is the bare sentinel; expected the pruner's wrapped form")
	}
	if agg.Skipped != 1 || agg.Failed != 0 {
		t.Fatalf("wrapped context error misclassified: %+v", agg)
	}
}

// badDocCancelReader delivers an invalid document and cancels the
// batch context together with the final chunk, so the job's genuine
// input failure races with — and must survive — the cancellation.
type badDocCancelReader struct {
	data   []byte
	cancel context.CancelFunc
}

func (r *badDocCancelReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	if len(r.data) == 0 {
		// Cancel inside the read: the countingReader's pre-read check
		// already passed, so the pruner sees the whole bad document and
		// fails on it while ctx is already cancelled.
		r.cancel()
		return n, io.EOF
	}
	return n, nil
}

// TestBatchPreservesRootCauseOnCancel: a job that failed on bad input
// while the batch was being cancelled keeps its root-cause error (the
// old code overwrote it with ctx.Err(), losing the only record of what
// was wrong) and still counts as Failed.
func TestBatchPreservesRootCauseOnCancel(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	p := titleProjector(t)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := []BatchJob{{
		Name: "bad",
		Src:  &badDocCancelReader{data: []byte(`<bib><zzz/></bib>`), cancel: cancel},
		Dst:  &bytes.Buffer{},
	}}
	results, agg, err := eng.PruneBatch(ctx, p, jobs, BatchOptions{Workers: 1})
	if err == nil {
		t.Fatal("failed batch reported success")
	}
	rerr := results[0].Err
	if rerr == nil {
		t.Fatal("bad job reported success")
	}
	if !strings.Contains(rerr.Error(), "zzz") {
		t.Fatalf("root cause lost: %v", rerr)
	}
	if !strings.Contains(rerr.Error(), "batch cancelled") {
		t.Fatalf("cancellation not recorded alongside the root cause: %v", rerr)
	}
	if errors.Is(rerr, context.Canceled) {
		t.Fatalf("genuine input failure classifies as a context error: %v", rerr)
	}
	if agg.Failed != 1 || agg.Skipped != 0 {
		t.Fatalf("root-cause failure misclassified: %+v", agg)
	}
	if !strings.Contains(err.Error(), "zzz") {
		t.Fatalf("batch error lost the root cause: %v", err)
	}
}

// memSource is an in-memory batch source: the prune takes its bytes
// (prune.BytesSource) and never reads it.
type memSource struct{ data []byte }

func (m *memSource) Read([]byte) (int, error) { return 0, io.EOF }
func (m *memSource) InputBytes() []byte       { return m.data }

// TestBatchIgnoresResultCache: a batch is prune.Stream per job whatever
// the engine was built with. Two byte-identical in-memory inputs (the
// only sources the old cached path took) produce two correct outputs,
// and an engine with a result cache — what the benchmark's one-shot
// xmlprune seam constructs — behaves exactly as a plain one: same
// bytes, same stats, nothing digested, nothing stored.
func TestBatchIgnoresResultCache(t *testing.T) {
	p := titleProjector(t)
	const doc = `<bib><book isbn="1"><title>Projection</title><author>B</author><year>2006</year></book></bib>`
	var want bytes.Buffer
	if _, err := p.PruneStream(&want, strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1 << 20} {
		eng := NewEngine(EngineOptions{ResultCacheBytes: budget})
		var a, b bytes.Buffer
		jobs := []BatchJob{
			{Name: "a", Src: &memSource{data: []byte(doc)}, Dst: &a},
			{Name: "b", Src: &memSource{data: []byte(doc)}, Dst: &b},
		}
		results, agg, err := eng.PruneBatch(context.Background(), p, jobs, BatchOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != want.String() || b.String() != want.String() {
			t.Fatalf("budget %d: outputs %q and %q, want %q twice", budget, a.String(), b.String(), want.String())
		}
		if results[0].Stats != results[1].Stats || agg.Pruned != 2 || agg.BytesIn != 2*int64(len(doc)) {
			t.Fatalf("budget %d: results %+v, agg %+v", budget, results, agg)
		}
		if rc := eng.Metrics().ResultCache; rc.Hits+rc.Misses+rc.Coalesced != 0 || rc.Entries != 0 {
			t.Fatalf("budget %d: the batch touched the result cache: %+v", budget, rc)
		}
	}
}

// TestDerivedFormsComputedOnce: once InferCached has answered a workload,
// a later ad-hoc request for it — a fresh Projector wrapper around the
// cached inference, as every xmlprojd ?q= request gets — neither
// compiles π nor hashes it, on the cached gather route or on the
// streamed one: the decision table and both result fingerprints live on
// the projector the inference cache stores. The ceilings hold what those
// routes allocate besides (the bunch key, the wrapper, the result, the
// scanner's two buffers): at the parent of this change the gather hit
// read 39, hashing π per wrapper, and the streamed prune 16, compiling it
// per call (5 allocations on this small DTD, 18 on XMark's).
func TestDerivedFormsComputedOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pools, so the routes allocate their buffers")
	}
	d, _ := apiSetup(t)
	eng := NewEngine(EngineOptions{ResultCacheBytes: 1 << 20})
	q, err := CompileXPath("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(apiDoc)
	digest, _ := eng.DigestBytes(data)
	first, err := eng.InferCached(d, Materialized, q)
	if err != nil {
		t.Fatal(err)
	}
	request := func(route func(p *Projector)) float64 {
		route(first)
		return testing.AllocsPerRun(50, func() {
			p, err := eng.InferCached(d, Materialized, q)
			if err != nil {
				t.Fatal(err)
			}
			if p == first || p.pr != first.pr {
				t.Fatal("want a fresh wrapper around the cached inference")
			}
			route(p)
		})
	}
	gather := request(func(p *Projector) {
		res, info, err := eng.PruneGatherDigest(p, data, digest, StreamOptions{})
		if err != nil || (p != first && !info.Hit) {
			t.Fatalf("hit=%v err=%v", info.Hit, err)
		}
		res.Close()
	})
	var out bytes.Buffer
	stream := request(func(p *Projector) {
		out.Reset()
		if _, err := p.PruneStreamOpts(&out, bytes.NewReader(data), StreamOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	const gatherCeiling, streamCeiling = 16, 12
	if gather > gatherCeiling || stream > streamCeiling {
		t.Fatalf("a repeat ad-hoc request allocates %v (gather hit, want <= %d) and %v (streamed, want <= %d): it compiled or hashed π again",
			gather, gatherCeiling, stream, streamCeiling)
	}
	t.Logf("allocations per repeat ad-hoc request: gather hit %v, streamed %v", gather, stream)
}

// sink keeps the compiler from discarding a measured call.
var sink *dtd.Projection

// BenchmarkDerivedForms takes the numbers DESIGN §11 quotes for the
// caches that are not there: what it costs to obtain a compiled π and a
// result fingerprint from a projector after first use (the memo on
// core.Projector), against compiling it. adhoc is the
// projector cache's own row: an ad-hoc request's projector built afresh
// (Compile, Infer, the compiled π and a result fingerprint: the fill a
// miss pays) against the same request answered by InferCached.
func BenchmarkDerivedForms(b *testing.B) {
	d, err := ParseDTDString(xmark.DTDSource, "site")
	if err != nil {
		b.Fatal(err)
	}
	queries := []string{
		`/site/regions/africa/item/location`, `//person[emailaddress]/name`, `/site/regions//item`, `//node()`,
		`//closed_auction/price`, `//open_auction[bidder]/initial`, `/site/categories/category/name`, `//person/profile/interest`,
	}
	projectors := func(n int) []*Projector {
		ps := make([]*Projector, n)
		for j := range ps {
			q, err := Compile(queries[j%len(queries)])
			if err != nil {
				b.Fatal(err)
			}
			if ps[j], err = d.Infer(Materialized, q); err != nil {
				b.Fatal(err)
			}
		}
		return ps
	}
	for j, name := range []string{"low", "mid", "item", "full"} {
		p := projectors(4)[j]
		size := fmt.Sprintf("%s-%dnames", name, len(p.Names()))
		b.Run("compiled/"+size, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = p.pr.Compiled()
			}
		})
		b.Run("fingerprint/"+size, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if p.pr.ResultFingerprint(i&1 == 0) == "" {
					b.Fatal("empty fingerprint")
				}
			}
		})
		b.Run("compile/"+size, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = p.d.Symbols().Project(p.pr.Row)
			}
		})
	}
	eng := NewEngine(EngineOptions{})
	for name, src := range map[string]string{"low": queries[0], "mid": queries[1]} {
		for _, route := range []string{"miss", "hit"} {
			b.Run("adhoc/"+route+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					q, err := Compile(src)
					if err != nil {
						b.Fatal(err)
					}
					var p *Projector
					if route == "miss" {
						p, err = d.Infer(Materialized, q)
					} else {
						p, err = eng.InferCached(d, Materialized, q)
					}
					if err != nil {
						b.Fatal(err)
					}
					if sink = p.pr.Compiled(); p.pr.ResultFingerprint(false) == "" {
						b.Fatal("empty fingerprint")
					}
				}
			})
		}
	}
}
