package bench

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"testing"

	"xmlproj/internal/engine"
)

// TestParallelPruneMatchesSerial: pruning a batch through the engine's
// worker pool produces exactly the bytes the serial streaming pruner
// produces for each document.
func TestParallelPruneMatchesSerial(t *testing.T) {
	w := NewWorkload(0.002, 5)
	q, ok := QueryByID("QP01")
	if !ok {
		t.Fatal("QP01 missing")
	}
	pr, err := w.Projector(q)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := PruneBytes(w, pr)
	if err != nil {
		t.Fatal(err)
	}
	const docs = 8
	e := engine.New(engine.Options{})
	jobs := make([]engine.Job, docs)
	outs := make([]*bytes.Buffer, docs)
	for i := range jobs {
		outs[i] = &bytes.Buffer{}
		jobs[i] = engine.Job{Name: fmt.Sprint(i), Src: bytes.NewReader(w.DocBytes), Dst: outs[i]}
	}
	if _, _, err := e.PruneBatch(context.Background(), pr, jobs, engine.BatchOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if !bytes.Equal(out.Bytes(), want) {
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
	q, ok := QueryByID("QP01")
	if !ok {
		b.Fatal("QP01 missing")
	}
	pr, err := w.Projector(q)
	if err != nil {
		b.Fatal(err)
	}
	const docs = 16
	widths := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		widths = append(widths, n)
	}
	for _, workers := range widths {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := engine.New(engine.Options{})
			b.SetBytes(int64(len(w.DocBytes)) * docs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				jobs := make([]engine.Job, docs)
				for j := range jobs {
					jobs[j] = engine.Job{Name: fmt.Sprint(j), Src: bytes.NewReader(w.DocBytes), Dst: io.Discard}
				}
				if _, _, err := e.PruneBatch(context.Background(), pr, jobs, engine.BatchOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
