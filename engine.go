package xmlproj

import (
	"context"
	"fmt"
	"sort"

	"xmlproj/internal/core"
	"xmlproj/internal/dtd"
	"xmlproj/internal/engine"
	"xmlproj/internal/prune"
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
	e *engine.Engine
}

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
	return &Engine{e: engine.New(engine.Options{ResultCacheBytes: opts.ResultCacheBytes})}
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
	key := engine.Key{
		Schema: d.d.Fingerprint(),
		Bunch:  bunchFingerprint(queries),
		Mode:   uint8(mode),
	}
	pr, err := eng.e.InferCached(key, func() (*core.Projector, error) {
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
type BatchJob = engine.Job

// BatchResult is the outcome of one batch job: its stats (on error, the
// prefix before the failure), bytes read, wall time, how the parallel or
// pipelined engine ran if one did (Workers == 0: it did not), and the
// error — the context error for jobs skipped after cancellation.
type BatchResult = engine.JobResult

// ParallelStages is the per-stage breakdown of one intra-document
// parallel prune: structural indexing, concurrent fragment pruning, and
// the sequential splice pass that stitches the fragments together.
type ParallelStages = prune.ParallelDetail

// PipelineStages is the per-stage breakdown of one pipelined streaming
// prune: reading source bytes into window slabs, incremental structural
// indexing, concurrent fragment pruning, and in-order emission.
type PipelineStages = prune.PipelineDetail

// BatchOptions configures one PruneBatch call.
type BatchOptions struct {
	// Workers bounds the pool for this batch; zero means GOMAXPROCS.
	Workers int
	// Validate fuses DTD validation with each prune and checks each whole
	// document for well-formedness (see StreamOptions.Validate).
	Validate bool
	// FailFast cancels the remaining jobs after the first failure;
	// otherwise the batch keeps going and reports every error.
	FailFast bool
	// Parallel forces the intra-document parallel pruner for every job.
	// When false it is still auto-selected per job for large inputs of
	// known size when the job validates and its worker budget is at
	// least 4.
	Parallel bool
	// IntraWorkers bounds the parallel pruner's concurrency within one
	// document (0 means GOMAXPROCS). Batches mixing inter-document and
	// intra-document parallelism will want Workers × IntraWorkers to be
	// about GOMAXPROCS.
	IntraWorkers int
}

// BatchStats aggregates a batch: summed pruner stats (MaxDepth is the
// maximum), total input bytes, and job outcomes.
type BatchStats = engine.BatchStats

// PruneBatch prunes every job against p through a bounded worker pool,
// in one streaming pass per document and nothing else: a batch is one
// projector over many different documents, which the result cache
// cannot hit, so it is not consulted — two byte-identical inputs are
// pruned twice. Results are in job order. The batch stops early when ctx
// is cancelled or, with FailFast, on the first failure. The returned
// error is nil only if every job succeeded.
func (eng *Engine) PruneBatch(ctx context.Context, p *Projector, jobs []BatchJob, opts BatchOptions) ([]BatchResult, BatchStats, error) {
	eopts := engine.BatchOptions{
		Workers:      opts.Workers,
		Validate:     opts.Validate,
		FailFast:     opts.FailFast,
		IntraWorkers: opts.IntraWorkers,
	}
	if opts.Parallel {
		eopts.Engine = prune.EngineParallel
	}
	return eng.e.PruneBatch(ctx, p.pr, jobs, eopts)
}

// EngineMetrics is a point-in-time snapshot of an engine's counters:
// the projector cache, batch and recorded prunes, the parallel and
// pipelined engines' stage times, and (ResultCache) the
// content-addressed result cache.
type EngineMetrics = engine.Metrics

// Metrics returns a snapshot of the engine's counters.
func (eng *Engine) Metrics() EngineMetrics { return eng.e.Metrics() }

// MetricsMap returns the metrics snapshot flattened into
// export-friendly key/value pairs (durations in nanoseconds) — the
// hook expvar-style publishers serialise; xmlprojd's /debug/vars is
// built on it.
func (eng *Engine) MetricsMap() map[string]any {
	return eng.e.Metrics().Map()
}

// RecordPrune credits one streaming prune that ran outside PruneBatch —
// a server streaming a request through Projector.PruneStreamOpts — into
// the engine's counters, with the batch pool's outcome classification:
// nil errors count as DocsPruned, context cancellations (however
// wrapped) count in neither bucket, everything else as PruneErrors.
func (eng *Engine) RecordPrune(bytesIn int64, stats PruneStats, det ParallelStages, pdet PipelineStages, err error) {
	eng.e.RecordPrune(bytesIn, stats.BytesOut, det, pdet, err)
}

// IntraWorkerBudget divides the host's CPUs across width concurrent
// prunes: the recommended per-document intra-parallelism budget for a
// server admitting up to width requests at once, never below 1.
// PruneBatch applies the same rule against its pool width when
// BatchOptions.IntraWorkers is unset.
func IntraWorkerBudget(procs, width int) int {
	return engine.IntraBudget(procs, width)
}
