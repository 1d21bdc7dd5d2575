package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"xmlproj/internal/core"
	"xmlproj/internal/prune"
)

// Job is one document to prune: a source stream and a destination.
// If Dst implements io.Closer it is closed when the job finishes and
// the close error folds into the job's error — write-behind failures
// like a full disk surface on the job, and a batch holds at most
// Workers destinations open at a time.
type Job struct {
	// Name labels the job in results (typically the input path).
	Name string
	Src  io.Reader
	Dst  io.Writer
}

// JobResult is the outcome of one batch job.
type JobResult struct {
	Name string
	// Stats is the streaming pruner's report; on error it covers the
	// prefix processed before the failure.
	Stats prune.Stats
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
func (r JobResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.BytesIn) / r.Elapsed.Seconds() / 1e6
}

// BatchOptions configures one PruneBatch call.
type BatchOptions struct {
	// Workers bounds the pool for this batch; zero means GOMAXPROCS.
	Workers int
	// Validate fuses DTD validation with the prune.
	Validate bool
	// FailFast cancels the remaining jobs after the first failure.
	// Otherwise the batch keeps going and reports every error.
	FailFast bool
}

// BatchStats aggregates a batch.
type BatchStats struct {
	// Stats sums the per-job pruner stats; MaxDepth is the maximum.
	prune.Stats
	// BytesIn sums bytes read across jobs.
	BytesIn int64
	// Pruned and Failed count jobs by outcome; Skipped counts jobs never
	// started because the batch was cancelled.
	Pruned, Failed, Skipped int
}

// PruneBatch prunes every job against π through a bounded worker pool:
// one prune.Stream per job, sharing π's compiled table, and nothing
// else — a batch is the paper's traffic, one projector over many
// different documents, which a result cache cannot hit (the engine's is
// not consulted, whatever Options.ResultCacheBytes says; two identical
// inputs are pruned twice). Results are returned in job order. The batch
// stops early when ctx is cancelled or, with FailFast, on the first job
// error; the remaining jobs are marked with the cancellation error. The
// returned error is nil only if every job succeeded.
func (e *Engine) PruneBatch(ctx context.Context, pr *core.Projector, jobs []Job, opts BatchOptions) ([]JobResult, BatchStats, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	results := make([]JobResult, len(jobs))
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
				results[i] = e.runJob(ctx, pr, jobs[i], opts)
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
				results[j] = JobResult{Name: jobs[j].Name, Err: ctx.Err()}
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
				firstErr = fmt.Errorf("engine: job %s: %w", r.Name, r.Err)
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

// runJob prunes one document, accounting bytes and metrics.
func (e *Engine) runJob(ctx context.Context, pr *core.Projector, job Job, opts BatchOptions) JobResult {
	res := JobResult{Name: job.Name}
	if err := ctx.Err(); err != nil {
		res.Err = err
	} else {
		src := &countingReader{r: job.Src, ctx: ctx}
		start := time.Now()
		res.Stats, res.Err = prune.Stream(job.Dst, src, pr.D, pr.Names, prune.StreamOptions{
			Validate:   opts.Validate,
			Projection: pr.Compiled(),
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
	e.RecordPrune(res.BytesIn, res.Stats.BytesOut, res.Err)
	return res
}

// RecordPrune credits one streaming prune into the engine's counters —
// batch jobs go through it, and serving layers that stream through
// Projector.PruneStream directly call it so /debug/vars style exports
// see every document, not only batch ones. Outcome classification
// matches the batch pool's: nil is a pruned document, a (possibly
// wrapped) context error is a skip counted in neither bucket, anything
// else is a prune error.
func (e *Engine) RecordPrune(bytesIn, bytesOut int64, err error) {
	e.m.bytesIn.Add(bytesIn)
	e.m.bytesOut.Add(bytesOut)
	switch {
	case err == nil:
		e.m.docsPruned.Add(1)
	case isContextErr(err):
		// Skipped, not failed; counted in neither bucket.
	default:
		e.m.pruneErrors.Add(1)
	}
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
