package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"xmlproj"
	"xmlproj/internal/xmark"
)

// batchProjector infers QP01's projector through the public API, where
// the batch pool is.
func batchProjector(tb testing.TB) *xmlproj.Projector {
	tb.Helper()
	q, ok := QueryByID("QP01")
	if !ok {
		tb.Fatal("QP01 missing")
	}
	d, err := xmlproj.ParseDTDString(xmark.DTDSource, "site")
	if err != nil {
		tb.Fatal(err)
	}
	query, err := xmlproj.Compile(q.Source)
	if err != nil {
		tb.Fatal(err)
	}
	p, err := d.Infer(xmlproj.Materialized, query)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestParallelPruneMatchesSerial: pruning a batch through the engine's
// worker pool produces exactly the bytes the serial streaming pruner
// produces for each document.
func TestParallelPruneMatchesSerial(t *testing.T) {
	w := NewWorkload(0.002, 5)
	p := batchProjector(t)
	var want bytes.Buffer
	if _, err := p.PruneStream(&want, bytes.NewReader(w.DocBytes)); err != nil {
		t.Fatal(err)
	}
	const docs = 8
	eng := xmlproj.NewEngine(xmlproj.EngineOptions{})
	jobs := make([]xmlproj.BatchJob, docs)
	outs := make([]*bytes.Buffer, docs)
	for i := range jobs {
		outs[i] = &bytes.Buffer{}
		jobs[i] = xmlproj.BatchJob{Name: fmt.Sprint(i), Src: bytes.NewReader(w.DocBytes), Dst: outs[i]}
	}
	if _, _, err := eng.PruneBatch(context.Background(), p, jobs, xmlproj.BatchOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if !bytes.Equal(out.Bytes(), want.Bytes()) {
			t.Fatalf("doc %d: parallel prune differs from serial prune", i)
		}
	}
}

// BenchmarkParallelPrune measures batch-pruning throughput as the worker
// pool widens from 1 to GOMAXPROCS over a batch of XMark documents —
// the §6 pruner is a one-pass scan with no shared state, so throughput
// should scale close to linearly until the memory bus saturates.
func BenchmarkParallelPrune(b *testing.B) {
	w := NewWorkload(0.004, 3)
	p := batchProjector(b)
	const docs = 16
	widths := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		widths = append(widths, n)
	}
	for _, workers := range widths {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := xmlproj.NewEngine(xmlproj.EngineOptions{})
			b.SetBytes(int64(len(w.DocBytes)) * docs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				jobs := make([]xmlproj.BatchJob, docs)
				for j := range jobs {
					jobs[j] = xmlproj.BatchJob{Name: fmt.Sprint(j), Src: bytes.NewReader(w.DocBytes), Dst: io.Discard}
				}
				if _, _, err := eng.PruneBatch(context.Background(), p, jobs, xmlproj.BatchOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
