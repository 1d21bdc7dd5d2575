package engine

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
)

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
// Skipped, not Failed, and not bump the engine's error metric.
func TestBatchWrappedContextClassifiedSkipped(t *testing.T) {
	d := bib(t)
	e := New(Options{})
	pr := titleProjector(t, d)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := []Job{{
		Name: "aborted",
		Src:  &cancelAfterReader{data: []byte(`<bib><book><title>T`), cancel: cancel},
		Dst:  &bytes.Buffer{},
	}}
	results, agg, err := e.PruneBatch(ctx, pr, jobs, BatchOptions{Workers: 1})
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
	if m := e.Metrics(); m.PruneErrors != 0 {
		t.Fatalf("skipped job counted as prune error: %+v", m)
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
	d := bib(t)
	e := New(Options{})
	pr := titleProjector(t, d)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	jobs := []Job{{
		Name: "bad",
		Src:  &badDocCancelReader{data: []byte(`<bib><zzz/></bib>`), cancel: cancel},
		Dst:  &bytes.Buffer{},
	}}
	results, agg, err := e.PruneBatch(ctx, pr, jobs, BatchOptions{Workers: 1})
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
