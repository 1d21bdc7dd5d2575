package engine

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xmlproj/internal/core"
	"xmlproj/internal/dtd"
	"xmlproj/internal/xpath"
	"xmlproj/internal/xpathl"
)

const bibDTD = `
<!ELEMENT bib (book*)>
<!ELEMENT book (title, author+, year?)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT year (#PCDATA)>
`

func bib(t *testing.T) *dtd.DTD {
	t.Helper()
	d, err := dtd.ParseString(bibDTD, "bib")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func inferTitle(t *testing.T, d *dtd.DTD) func() (*core.Projector, error) {
	t.Helper()
	e := xpath.MustParse("//book/title")
	paths, err := xpathl.FromQuery(e)
	if err != nil {
		t.Fatal(err)
	}
	return func() (*core.Projector, error) {
		return core.InferMaterialized(d, paths)
	}
}

// TestInferCachedSingleFlight: N concurrent requests for one cold key
// run exactly one inference; everyone gets the same projector.
func TestInferCachedSingleFlight(t *testing.T) {
	d := bib(t)
	e := New(Options{})
	key := Key{Schema: "s", Bunch: "b", Mode: 0}

	var calls atomic.Int64
	base := inferTitle(t, d)
	slow := func() (*core.Projector, error) {
		calls.Add(1)
		time.Sleep(20 * time.Millisecond) // hold the flight open so others pile on
		return base()
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
			prs[i], errs[i] = e.InferCached(key, slow)
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
	m := e.Metrics()
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
			if _, err := e.InferCached(key, slow); err != nil {
				t.Error(err)
			}
		}()
	}
	wg2.Wait()
	m = e.Metrics()
	if m.Inferences != 1 {
		t.Fatalf("warm cache still inferred: %+v", m)
	}
	if m.CacheHits != N {
		t.Fatalf("CacheHits = %d, want %d", m.CacheHits, N)
	}
}

// TestInferCachedErrorNotCached: a failed inference is reported to every
// waiter but not cached, so the next request retries.
func TestInferCachedErrorNotCached(t *testing.T) {
	e := New(Options{})
	key := Key{Schema: "s", Bunch: "bad"}
	var calls atomic.Int64
	fail := func() (*core.Projector, error) {
		calls.Add(1)
		return nil, fmt.Errorf("boom")
	}
	if _, err := e.InferCached(key, fail); err == nil {
		t.Fatal("error swallowed")
	}
	if _, err := e.InferCached(key, fail); err == nil {
		t.Fatal("error cached as success")
	}
	if calls.Load() != 2 {
		t.Fatalf("failed inference not retried: %d calls", calls.Load())
	}
	if n := e.Metrics().CacheEntries; n != 0 {
		t.Fatalf("error cached: %d entries", n)
	}
}

// TestCacheEviction: the LRU stays bounded at CacheSize and evicts the
// cold end.
func TestCacheEviction(t *testing.T) {
	d := bib(t)
	e := New(Options{})
	infer := inferTitle(t, d)
	const n = CacheSize + 2
	for i := 0; i < n; i++ {
		if _, err := e.InferCached(Key{Bunch: fmt.Sprint(i)}, infer); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Metrics().CacheEntries; got != CacheSize {
		t.Fatalf("cache size = %d, want %d", got, CacheSize)
	}
	// Keys 0 and 1 were evicted; the rest remain.
	var calls atomic.Int64
	counting := func() (*core.Projector, error) { calls.Add(1); return infer() }
	e.InferCached(Key{Bunch: fmt.Sprint(n - 1)}, counting)
	e.InferCached(Key{Bunch: "0"}, counting)
	if calls.Load() != 1 {
		t.Fatalf("want 1 re-inference (evicted key), got %d", calls.Load())
	}
	if m := e.Metrics(); m.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3: %+v", m.Evictions, m)
	}
}

func batchJobs(n int) ([]Job, []*bytes.Buffer) {
	jobs := make([]Job, n)
	outs := make([]*bytes.Buffer, n)
	for i := range jobs {
		outs[i] = &bytes.Buffer{}
		doc := fmt.Sprintf(`<bib><book><title>T%d</title><author>A%d</author></book></bib>`, i, i)
		jobs[i] = Job{Name: fmt.Sprintf("doc%d", i), Src: strings.NewReader(doc), Dst: outs[i]}
	}
	return jobs, outs
}

func titleProjector(t *testing.T, d *dtd.DTD) *core.Projector {
	t.Helper()
	pr, err := inferTitle(t, d)()
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

// TestPruneBatch: every document is pruned, results stay in job order,
// stats aggregate.
func TestPruneBatch(t *testing.T) {
	d := bib(t)
	e := New(Options{})
	pr := titleProjector(t, d)
	jobs, outs := batchJobs(20)
	results, agg, err := e.PruneBatch(context.Background(), pr, jobs, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Name != fmt.Sprintf("doc%d", i) {
			t.Fatalf("result %d out of order: %s", i, r.Name)
		}
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.Name, r.Err)
		}
		want := fmt.Sprintf("<title>T%d</title>", i)
		if !strings.Contains(outs[i].String(), want) {
			t.Fatalf("job %d output = %s", i, outs[i].String())
		}
		if strings.Contains(outs[i].String(), "A") {
			t.Fatalf("job %d authors survived: %s", i, outs[i].String())
		}
	}
	if agg.Pruned != 20 || agg.Failed != 0 || agg.Skipped != 0 {
		t.Fatalf("aggregate outcome: %+v", agg)
	}
	if agg.ElementsOut != 20*3 || agg.BytesIn == 0 || agg.BytesOut == 0 || agg.MaxDepth != 3 {
		t.Fatalf("aggregate stats: %+v", agg)
	}
	m := e.Metrics()
	if m.DocsPruned != 20 || m.BytesIn != agg.BytesIn || m.BytesOut != agg.BytesOut {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestPruneBatchKeepGoing: without FailFast a bad document fails alone;
// every other job still completes.
func TestPruneBatchKeepGoing(t *testing.T) {
	d := bib(t)
	e := New(Options{})
	pr := titleProjector(t, d)
	jobs, outs := batchJobs(6)
	jobs[2].Src = strings.NewReader(`<bib><unknown/></bib>`)
	results, agg, err := e.PruneBatch(context.Background(), pr, jobs, BatchOptions{Workers: 2})
	if err == nil {
		t.Fatal("batch error swallowed")
	}
	if results[2].Err == nil {
		t.Fatal("bad job reported success")
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
	d := bib(t)
	e := New(Options{})
	pr := titleProjector(t, d)
	const n = 64
	jobs, _ := batchJobs(n)
	jobs[0].Src = strings.NewReader(`not xml at all <<<`)
	results, agg, err := e.PruneBatch(context.Background(), pr, jobs, BatchOptions{Workers: 1, FailFast: true})
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
	d := bib(t)
	e := New(Options{})
	pr := titleProjector(t, d)
	jobs, _ := batchJobs(16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the batch starts
	results, agg, err := e.PruneBatch(ctx, pr, jobs, BatchOptions{Workers: 4})
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

// TestProjectionCache: a batch compiles π against the symbol table once,
// on the projector; later batches for the same projector reuse that
// table, and asking for it again allocates nothing.
func TestProjectionCache(t *testing.T) {
	d := bib(t)
	e := New(Options{})
	pr := titleProjector(t, d)

	jobs, _ := batchJobs(8)
	if _, _, err := e.PruneBatch(context.Background(), pr, jobs, BatchOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	table := pr.Compiled()
	jobs2, outs := batchJobs(8)
	if _, _, err := e.PruneBatch(context.Background(), pr, jobs2, BatchOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if pr.Compiled() != table {
		t.Fatal("second batch compiled π again")
	}
	if got := outs[3].String(); got != `<bib><book><title>T3</title></book></bib>` {
		t.Fatalf("second batch output = %q", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { pr.Compiled() }); allocs != 0 {
		t.Fatalf("a compiled π costs %v allocations after first use, want 0", allocs)
	}
}

// TestInferCachedSharesCompiledTable: concurrent cold requests for one
// workload get one projector from the inference cache, and their
// concurrent first use of it compiles one table.
func TestInferCachedSharesCompiledTable(t *testing.T) {
	d := bib(t)
	e := New(Options{})
	infer := inferTitle(t, d)

	var wg sync.WaitGroup
	got := make([]*dtd.Projection, 32)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pr, err := e.InferCached(Key{Schema: "s", Bunch: "b"}, infer)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = pr.Compiled()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] == nil || got[i] != got[0] {
			t.Fatal("concurrent callers saw distinct projections")
		}
	}
	if m := e.Metrics(); m.Inferences != 1 {
		t.Fatalf("want exactly one inference, got %d", m.Inferences)
	}
}
