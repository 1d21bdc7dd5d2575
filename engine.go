package xmlproj

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xmlproj/internal/cache"
	"xmlproj/internal/core"
	"xmlproj/internal/dtd"
	"xmlproj/internal/prune"
	"xmlproj/internal/rescache"
)

// Engine is a concurrent projection engine for server-style workloads:
// it caches inferred projectors in a bounded LRU keyed by (schema,
// query bunch, mode) — with single-flight deduplication, so N
// concurrent requests for the same workload pay for one inference —
// and prunes batches of documents through a bounded worker pool.
// Projector inference depends only on the schema and the queries
// (§5: projectors are closed under union and can be computed once per
// workload), which is exactly what makes the cache sound.
//
// The projector cache holds 128 workloads. An Engine is safe for
// concurrent use by any number of goroutines.
type Engine struct {
	// inferred caches projectors by workload. Traffic: every ad-hoc
	// xmlprojd request (?q=) asks for its bunch's projector. The fill a
	// hit saves is Compile + Infer + the compiled π + a result
	// fingerprint: 67–70 µs for /site/regions/africa/item/location and
	// 208–251 µs for //person[emailaddress]/name, against 4.9–6.7 µs for
	// the same request answered here (BenchmarkDerivedForms/adhoc, 2
	// vCPU), so the cache saves 10–45× on that route. The cached
	// projector carries π's compiled table and result fingerprints
	// (core.Projector), so a hit recomputes neither.
	inferred *cache.Cache[inferKey, *core.Projector]

	// results caches pruned outputs by (document digest, variant); nil
	// when EngineOptions.ResultCacheBytes is not positive.
	results *rescache.Cache

	// The projector cache's counters, updated with atomics so the hot
	// paths never serialise on a metrics lock.
	hits, misses, coalesced, inferences, inferNanos atomic.Int64
}

// inferKey identifies a cached projector: the schema fingerprint, the
// canonical rendering of the query bunch, and the inference mode.
// Projector inference is deterministic in these three inputs.
type inferKey struct {
	schema, bunch string
	mode          Mode
}

// inferCacheSize bounds the projector cache. An entry is a name set plus
// the decision table and fingerprints derived from it, so the bound caps
// the number of distinct workloads retained, not memory.
const inferCacheSize = 128

// EngineOptions configures NewEngine.
type EngineOptions struct {
	// ResultCacheBytes budgets the content-addressed result cache: a
	// sharded, byte-budgeted LRU of pruned outputs keyed by (document
	// digest, projection fingerprint, validate mode), with single-flight
	// fill. It serves the gather route only: a repeat prune of an
	// unchanged document under the same projector through
	// Engine.PruneGatherDigest is answered from cached bytes in O(digest)
	// time (xmlprojd: serve_warm 1.3 ms against serve_cold 4.5 ms).
	// PruneBatch and the streaming entry points never consult it. Zero or
	// negative disables the cache (the recommended server default is
	// 256 MiB, DefaultResultCacheBytes).
	ResultCacheBytes int64
}

// NewEngine returns an engine with the given options.
func NewEngine(opts EngineOptions) *Engine {
	return &Engine{
		inferred: cache.New[inferKey, *core.Projector](inferCacheSize, nil),
		results:  rescache.New(opts.ResultCacheBytes),
	}
}

// InferCached is Infer through the engine's projector cache: the first
// request for a (schema, query bunch, mode) workload runs the static
// analysis, concurrent duplicates wait for it, and later requests hit
// the cache. The query bunch is canonicalised (sorted, deduplicated),
// so the same set of queries in any order is one cache entry. The cached
// projector carries its compiled decision table and result fingerprints,
// so a hit recomputes nothing derived from π.
func (eng *Engine) InferCached(d *DTD, mode Mode, queries ...*Query) (*Projector, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("xmlproj: no queries to infer from")
	}
	key := inferKey{schema: d.d.Fingerprint(), bunch: bunchFingerprint(queries), mode: mode}
	pr, err := eng.inferCached(key, func() (*core.Projector, error) {
		p, err := d.Infer(mode, queries...)
		if err != nil {
			return nil, err
		}
		return p.pr, nil
	})
	if err != nil {
		return nil, err
	}
	return &Projector{d: d.d, pr: pr}, nil
}

// inferCached returns the projector for key, computing it with infer on
// a cache miss. Errors are shared with the callers that were waiting but
// are not cached, so a later request retries.
func (eng *Engine) inferCached(key inferKey, infer func() (*core.Projector, error)) (*core.Projector, error) {
	pr, out, err := eng.inferred.GetOrFill(key, func() (*core.Projector, bool, error) {
		eng.misses.Add(1)
		start := time.Now()
		pr, err := infer()
		eng.inferences.Add(1)
		eng.inferNanos.Add(time.Since(start).Nanoseconds())
		return pr, true, err
	})
	switch out {
	case cache.Hit:
		eng.hits.Add(1)
	case cache.Coalesced:
		eng.coalesced.Add(1)
	}
	return pr, err
}

// bunchFingerprint canonicalises a query bunch: each query is tagged
// with its language, the renderings are sorted and deduplicated.
func bunchFingerprint(queries []*Query) string {
	parts := make([]string, len(queries))
	for i, q := range queries {
		parts[i] = fmt.Sprintf("%d\x00%s", q.Kind, q.source)
	}
	sort.Strings(parts)
	uniq := parts[:0]
	for i, p := range parts {
		if i == 0 || p != parts[i-1] {
			uniq = append(uniq, p)
		}
	}
	return dtd.Fingerprint(uniq...)
}

// BatchJob is one document for PruneBatch: a source stream and a
// destination. If Dst implements io.Closer the engine closes it when
// the job finishes, folding the close error into the job's error — so
// "disk full at close" surfaces on the job, and at most Workers
// destinations are open at a time.
type BatchJob struct {
	// Name labels the job in results (typically the input path).
	Name string
	Src  io.Reader
	Dst  io.Writer
}

// BatchResult is the outcome of one batch job.
type BatchResult struct {
	Name string
	// Stats is the streaming pruner's report; on error it covers the
	// prefix processed before the failure.
	Stats PruneStats
	// BytesIn counts bytes read from the job's source.
	BytesIn int64
	// Elapsed is the wall time the prune took (zero for skipped jobs),
	// so callers can report per-job throughput.
	Elapsed time.Duration
	// Parallel is always zero: every job runs on the serial scanner.
	//
	// Deprecated: kept only because benchmark/seams.go:402 reads it.
	Parallel prune.ParallelDetail
	// Err is nil on success. Jobs skipped after cancellation (fail-fast
	// or a cancelled context) carry the context error.
	Err error
}

// Throughput returns the job's input processing rate in MB/s (0 when
// nothing was timed).
func (r BatchResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.BytesIn) / r.Elapsed.Seconds() / 1e6
}

// BatchOptions configures one PruneBatch call.
type BatchOptions struct {
	// Workers bounds the pool for this batch; zero means GOMAXPROCS.
	Workers int
	// Validate fuses DTD validation of what π keeps with each prune and
	// checks each whole document for well-formedness (see
	// StreamOptions.Validate).
	Validate bool
	// FailFast cancels the remaining jobs after the first failure;
	// otherwise the batch keeps going and reports every error.
	FailFast bool
}

// BatchStats aggregates a batch: it is the batch's outcome, the one
// place its jobs are counted.
type BatchStats struct {
	// Stats sums the per-job pruner stats; MaxDepth is the maximum.
	prune.Stats
	// BytesIn sums bytes read across jobs.
	BytesIn int64
	// Pruned and Failed count jobs by outcome; Skipped counts jobs never
	// started because the batch was cancelled.
	Pruned, Failed, Skipped int
}

// PruneBatch prunes every job against p through a bounded worker pool,
// in one serial streaming pass per document and nothing else: the
// parallelism is across documents, sharing p's compiled table. A batch
// is one projector over many different documents, which the result
// cache cannot hit, so it is not consulted — two byte-identical inputs
// are pruned twice. Results are in job order. The batch stops early when
// ctx is cancelled or, with FailFast, on the first failure; the
// remaining jobs are marked with the cancellation error. The returned
// error is nil only if every job succeeded.
func (eng *Engine) PruneBatch(ctx context.Context, p *Projector, jobs []BatchJob, opts BatchOptions) ([]BatchResult, BatchStats, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]BatchResult, len(jobs))
	if len(jobs) == 0 {
		return results, BatchStats{}, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = runJob(ctx, p, jobs[i], opts)
				if results[i].Err != nil && opts.FailFast {
					cancel()
				}
			}
		}()
	}
feed:
	for i := range jobs {
		select {
		case next <- i:
		case <-ctx.Done():
			// Mark every unfed job as skipped, releasing its destination.
			for j := i; j < len(jobs); j++ {
				results[j] = BatchResult{Name: jobs[j].Name, Err: ctx.Err()}
				closeDst(jobs[j].Dst)
			}
			break feed
		}
	}
	close(next)
	wg.Wait()

	var agg BatchStats
	var firstErr error
	for i := range results {
		r := &results[i]
		agg.ElementsIn += r.Stats.ElementsIn
		agg.ElementsOut += r.Stats.ElementsOut
		agg.TextIn += r.Stats.TextIn
		agg.TextOut += r.Stats.TextOut
		agg.ElementsSkipped += r.Stats.ElementsSkipped
		agg.TextSkipped += r.Stats.TextSkipped
		agg.BytesOut += r.Stats.BytesOut
		if r.Stats.MaxDepth > agg.MaxDepth {
			agg.MaxDepth = r.Stats.MaxDepth
		}
		agg.BytesIn += r.BytesIn
		switch {
		case r.Err == nil:
			agg.Pruned++
		case isContextErr(r.Err):
			agg.Skipped++
		default:
			agg.Failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("xmlproj: job %s: %w", r.Name, r.Err)
			}
		}
	}
	if firstErr == nil && ctx.Err() != nil && agg.Skipped > 0 {
		firstErr = ctx.Err()
	}
	if firstErr != nil && agg.Failed+agg.Skipped > 1 {
		firstErr = fmt.Errorf("%w (and %d more jobs failed or were skipped)", firstErr, agg.Failed+agg.Skipped-1)
	}
	return results, agg, firstErr
}

// runJob prunes one document, counting the bytes it reads.
func runJob(ctx context.Context, p *Projector, job BatchJob, opts BatchOptions) BatchResult {
	res := BatchResult{Name: job.Name}
	if err := ctx.Err(); err != nil {
		res.Err = err
	} else {
		src := &countingReader{r: job.Src, ctx: ctx}
		start := time.Now()
		res.Stats, res.Err = prune.Stream(job.Dst, src, p.d, nil, prune.StreamOptions{
			Validate:   opts.Validate,
			Projection: p.pr.Compiled(),
		})
		res.Elapsed = time.Since(start)
		res.BytesIn = src.n
		// A prune aborted by cancellation already carries the context
		// error (possibly wrapped by the pruner); errors.Is classifies it
		// as skipped. A job that failed on its own input before the batch
		// was cancelled keeps its root cause — overwriting it with
		// ctx.Err() would lose the only record of why the batch died —
		// with the cancellation noted alongside.
		if res.Err != nil && ctx.Err() != nil && !isContextErr(res.Err) {
			res.Err = fmt.Errorf("%w (batch cancelled: %v)", res.Err, ctx.Err())
		}
	}
	if cerr := closeDst(job.Dst); cerr != nil && res.Err == nil {
		res.Err = cerr
	}
	return res
}

// isContextErr reports whether err is a cancellation or deadline error,
// however deeply wrapped — a context error surfaced through the
// countingReader comes back as "prune: context canceled". An i/o
// deadline on the source (a server arming connection deadlines) is the
// same outcome by another mechanism: the prune was cut short, the
// document wasn't at fault.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, os.ErrDeadlineExceeded)
}

// closeDst closes the job destination if it is a Closer, so write-behind
// errors (a full disk at close) surface and file descriptors are bounded
// by the pool width, not the batch size.
func closeDst(dst io.Writer) error {
	if c, ok := dst.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// countingReader counts bytes and aborts reads once ctx is cancelled, so
// a fail-fast batch does not finish streaming multi-gigabyte inputs that
// no longer matter.
type countingReader struct {
	r   io.Reader
	ctx context.Context
	n   int64
}

// InputBytes forwards an in-memory source (prune.BytesSource) through
// the counting wrapper. The contract is one call at the point of
// commitment, so the whole input is credited as consumed here — the
// prune takes it from memory instead of through Read.
func (c *countingReader) InputBytes() []byte {
	bs, ok := c.r.(prune.BytesSource)
	if !ok || c.ctx.Err() != nil {
		return nil
	}
	b := bs.InputBytes()
	c.n += int64(len(b))
	return b
}

func (c *countingReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// EngineMetrics is a point-in-time snapshot of an engine's counters: its
// two caches, the projector cache and (ResultCache) the content-addressed
// result cache. What a prune did is counted where it is reported — a
// batch's jobs in its BatchStats, a served request by the server.
type EngineMetrics struct {
	// CacheHits counts InferCached calls answered from the cache;
	// CacheMisses counts calls that ran inference; Coalesced counts
	// calls that piggybacked on another caller's in-flight inference
	// (single-flight deduplication). Evictions counts LRU evictions.
	CacheHits, CacheMisses, Coalesced, Evictions int64
	// CacheEntries is the number of projectors currently cached.
	CacheEntries int
	// Inferences counts projector inferences actually executed and
	// InferenceTime their cumulative wall time.
	Inferences    int64
	InferenceTime time.Duration
	// ResultCache is the content-addressed pruned-output cache snapshot
	// (all zero when the cache is disabled).
	ResultCache rescache.Metrics
}

// Metrics returns a snapshot of the engine's counters. Individual
// counters are each read atomically; the snapshot as a whole is not a
// consistent cut, which is fine for observability.
func (eng *Engine) Metrics() EngineMetrics {
	inferred := eng.inferred.Usage()
	return EngineMetrics{
		CacheHits:     eng.hits.Load(),
		CacheMisses:   eng.misses.Load(),
		Coalesced:     eng.coalesced.Load(),
		Evictions:     inferred.Evictions,
		CacheEntries:  inferred.Entries,
		Inferences:    eng.inferences.Load(),
		InferenceTime: time.Duration(eng.inferNanos.Load()),
		ResultCache:   eng.results.Snapshot(),
	}
}

// MetricsMap returns the metrics snapshot flattened into
// export-friendly key/value pairs (durations in nanoseconds) — the
// hook expvar-style publishers serialise; xmlprojd's /debug/vars is
// built on it.
func (eng *Engine) MetricsMap() map[string]any {
	m := eng.Metrics()
	return map[string]any{
		"cache_hits":                m.CacheHits,
		"cache_misses":              m.CacheMisses,
		"coalesced":                 m.Coalesced,
		"evictions":                 m.Evictions,
		"cache_entries":             m.CacheEntries,
		"inferences":                m.Inferences,
		"inference_nanos":           int64(m.InferenceTime),
		"result_cache_hits":         m.ResultCache.Hits,
		"result_cache_misses":       m.ResultCache.Misses,
		"result_cache_coalesced":    m.ResultCache.Coalesced,
		"result_cache_evictions":    m.ResultCache.Evictions,
		"result_cache_bypasses":     m.ResultCache.Bypasses,
		"result_cache_entries":      m.ResultCache.Entries,
		"result_cache_bytes":        m.ResultCache.Bytes,
		"result_cache_budget_bytes": m.ResultCache.Budget,
	}
}

// IntraWorkerBudget divides procs CPUs across width concurrent prunes,
// never below 1. Nothing reads the result: a prune is one serial pass.
//
// Deprecated: kept only because benchmark/seams.go:315 calls it.
func IntraWorkerBudget(procs, width int) int {
	if width < 1 {
		width = 1
	}
	return max(procs/width, 1)
}
