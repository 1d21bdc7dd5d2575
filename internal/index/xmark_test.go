package index_test

// The tests that need an XMark document live outside the package:
// xmark builds trees, internal/tree loads through internal/scan, and
// scan imports this package.

import (
	"bytes"
	"runtime"
	"testing"

	"xmlproj/internal/index"
	"xmlproj/internal/xmark"
)

// xmarkDoc is XMark at factor 0.1 (6.7 MB, 240 k constructs), with the
// DTD's symbol lookup, as the parallel pruner indexes it.
func xmarkDoc(tb testing.TB) ([]byte, func([]byte) (int32, bool)) {
	tb.Helper()
	return []byte(xmark.NewGenerator(0.1, 42).Document().XML()), xmark.DTD().Symbols().Lookup
}

// TestBuildColdAllocation pins what the collapsed representation buys:
// a first Build in the process — nothing pooled — allocates less than
// the document's own size (it was 12× when every tag kept an entry).
func TestBuildColdAllocation(t *testing.T) {
	data, lookup := xmarkDoc(t)
	// Two collections empty sync.Pool's primary and victim caches.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	//lint:ignore SA1019 Build is what this package tests
	ix, err := index.Build(data, index.Options{Lookup: lookup})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Release()
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d entries, %d bytes allocated for %d bytes of input (%.3fx)",
		len(ix.Entries), got, len(data), float64(got)/float64(len(data)))
	if got > uint64(len(data)) {
		t.Errorf("cold Build allocated %d bytes for a %d-byte document", got, len(data))
	}
}

func BenchmarkBuild(b *testing.B) {
	data, lookup := xmarkDoc(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		//lint:ignore SA1019 Build is what this package tests
		ix, err := index.Build(data, index.Options{Lookup: lookup})
		if err != nil {
			b.Fatal(err)
		}
		ix.Release()
	}
}

// BenchmarkBalance is the structural skip's sweep over the whole of the
// root element's content, as a prune keeping only the root runs it.
func BenchmarkBalance(b *testing.B) {
	data, _ := xmarkDoc(b)
	start := bytes.Index(data, []byte("<site>")) + len("<site>")
	b.SetBytes(int64(len(data) - start))
	for i := 0; i < b.N; i++ {
		if _, depth, _ := index.Balance(data, start, 0); depth != 0 {
			b.Fatalf("depth %d at the end", depth)
		}
	}
}
