package xmlproj

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"xmlproj/internal/dtd"
)

// cacheEngineSetup builds an engine with a result cache plus two
// projectors (title, year) over the api DTD.
func cacheEngineSetup(t *testing.T) (*Engine, *DTD, *Projector, *Projector) {
	t.Helper()
	d, err := ParseDTDString(apiDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	qt, err := CompileXPath("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	qy, err := CompileXPath("//book/year")
	if err != nil {
		t.Fatal(err)
	}
	pt, err := d.Infer(Materialized, qt)
	if err != nil {
		t.Fatal(err)
	}
	py, err := d.Infer(Materialized, qy)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(EngineOptions{ResultCacheBytes: 1 << 20}), d, pt, py
}

// TestEnginePruneGatherCacheDifferential sweeps documents × projectors
// × validate modes: a warm cache hit must return byte-identical output
// (and stats) to a fresh uncached prune, under distinct cache keys per
// variant.
func TestEnginePruneGatherCacheDifferential(t *testing.T) {
	eng, d, pt, py := cacheEngineSetup(t)
	docs := []string{
		apiDoc,
		`<bib></bib>`,
		`<bib><book isbn="3"><title>Orlando</title><author>Ariosto</author><year>1516</year></book></bib>`,
	}
	for di, doc := range docs {
		for pi, p := range []*Projector{pt, py} {
			for _, validate := range []bool{false, true} {
				label := fmt.Sprintf("doc%d/proj%d/validate=%v", di, pi, validate)
				opts := StreamOptions{Validate: validate}

				fresh, err := p.PruneGather([]byte(doc), opts)
				if err != nil {
					t.Fatalf("%s: fresh prune: %v", label, err)
				}
				want := fresh.Bytes()
				wantStats := fresh.Stats
				fresh.Close()

				cold, info, err := eng.PruneGatherDigest(p, []byte(doc), "", opts)
				if err != nil {
					t.Fatalf("%s: cold cached prune: %v", label, err)
				}
				if !info.Enabled || info.Hit {
					t.Fatalf("%s: cold info = %+v", label, info)
				}
				if got := cold.Bytes(); !bytes.Equal(got, want) {
					t.Fatalf("%s: cold output differs:\n got %q\nwant %q", label, got, want)
				}
				cold.Close()

				warm, winfo, err := eng.PruneGatherDigest(p, []byte(doc), "", opts)
				if err != nil {
					t.Fatalf("%s: warm cached prune: %v", label, err)
				}
				if !winfo.Hit {
					t.Fatalf("%s: warm prune missed the cache", label)
				}
				if winfo.ETag != info.ETag || winfo.Digest != info.Digest {
					t.Fatalf("%s: unstable cache identity: %+v vs %+v", label, winfo, info)
				}
				if got := warm.Bytes(); !bytes.Equal(got, want) {
					t.Fatalf("%s: warm output differs:\n got %q\nwant %q", label, got, want)
				}
				if warm.Stats != wantStats {
					t.Fatalf("%s: warm stats %+v != fresh %+v", label, warm.Stats, wantStats)
				}
				if warm.Len() != int64(len(want)) || warm.Segments() != 1 || warm.RawBytes() != 0 {
					t.Fatalf("%s: warm accessors: len=%d segments=%d raw=%d", label, warm.Len(), warm.Segments(), warm.RawBytes())
				}
				warm.Close()
			}
		}
	}

	// Every (doc, projector, validate) triple above is a distinct key:
	// no cross-variant hits.
	m := eng.Metrics()
	wantMisses := int64(len(docs) * 2 * 2)
	if m.ResultCache.Misses != wantMisses || m.ResultCache.Hits != wantMisses {
		t.Fatalf("result cache hits=%d misses=%d, want %d each", m.ResultCache.Hits, m.ResultCache.Misses, wantMisses)
	}

	// A hit compiles nothing: only a miss's fill asks the projector for
	// its decision table. Every run below is the first use of a projector
	// that has never been compiled (its fingerprint, which the key needs,
	// is taken beforehand), so a hit that compiled would pay
	// dtd.CompileProjection's allocations — 5 on this DTD — every time.
	text, err := pt.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var fresh []*Projector
	for i := 0; i <= runs; i++ { // AllocsPerRun makes one warm-up call
		p, err := d.LoadProjector(text)
		if err != nil {
			t.Fatal(err)
		}
		if eng.ResultETag(p, "00", false) == "" {
			t.Fatal("no ETag from an engine with a result cache")
		}
		fresh = append(fresh, p)
	}
	data := []byte(apiDoc)
	digest, _ := eng.DigestBytes(data)
	allocs := testing.AllocsPerRun(runs, func() {
		p := fresh[0]
		fresh = fresh[1:]
		res, info, err := eng.PruneGatherDigest(p, data, digest, StreamOptions{})
		if err != nil || !info.Hit {
			t.Fatalf("hit=%v err=%v", info.Hit, err)
		}
		res.Close()
	})
	if allocs > hitAllocCeiling && !raceEnabled {
		t.Fatalf("a result-cache hit on a never-compiled projector costs %v allocations, want <= %d: it compiled π", allocs, hitAllocCeiling)
	}
}

// hitAllocCeiling bounds a PruneGatherDigest hit, which measures 6: the
// result, the entry and the digest and ETag strings of its CacheInfo.
// Compiling π (5 allocations on the api DTD, 18 on XMark's) or hashing it
// (sort + two SHA-256 passes, 24 and 44) does not fit under it.
const hitAllocCeiling = 8

// TestEnginePruneGatherETags: ETags separate projectors and validate
// modes over one document, and separate documents under one projector.
func TestEnginePruneGatherETags(t *testing.T) {
	eng, _, pt, py := cacheEngineSetup(t)
	data := []byte(apiDoc)

	res, a, err := eng.PruneGatherDigest(pt, data, "", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	res, b, err := eng.PruneGatherDigest(py, data, "", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	res, c, err := eng.PruneGatherDigest(pt, data, "", StreamOptions{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	res, d, err := eng.PruneGatherDigest(pt, []byte(`<bib></bib>`), "", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res.Close()

	if a.ETag == b.ETag || a.ETag == c.ETag || a.ETag == d.ETag {
		t.Fatalf("ETags collide: %+v %+v %+v %+v", a, b, c, d)
	}
	if a.Digest != b.Digest || a.Digest != c.Digest {
		t.Fatalf("same document, different digests: %+v %+v %+v", a, b, c)
	}
	if a.Digest == d.Digest {
		t.Fatalf("different documents share a digest: %+v %+v", a, d)
	}
	if !strings.HasPrefix(a.ETag, `"`+a.Digest+"-") {
		t.Fatalf("ETag %q does not embed digest %q", a.ETag, a.Digest)
	}
	if got := eng.ResultETag(pt, a.Digest, false); got != a.ETag {
		t.Fatalf("ResultETag %q != served ETag %q", got, a.ETag)
	}

	// CachedLen peeks without counting.
	before := eng.Metrics()
	n, ok := eng.CachedLen(pt, a.Digest, false)
	if !ok || n <= 0 {
		t.Fatalf("CachedLen(cached entry) = %d, %v", n, ok)
	}
	if _, ok := eng.CachedLen(pt, d.Digest, true); ok {
		t.Fatalf("CachedLen hit an entry that was never cached")
	}
	if _, ok := eng.CachedLen(pt, "not-a-digest", false); ok {
		t.Fatalf("CachedLen accepted a malformed digest")
	}
	after := eng.Metrics()
	if after.ResultCache.Hits != before.ResultCache.Hits || after.ResultCache.Misses != before.ResultCache.Misses {
		t.Fatalf("CachedLen moved hit/miss counters: %+v -> %+v", before, after)
	}
}

// TestEnginePruneGatherBypasses: only an engine without a cache
// bypasses it, and it never reports Enabled. A forced engine does not:
// the output is engine-independent, and prune.run re-routes pipelined
// over resident input into spans to the parallel engine anyway, so the
// forced prune fills the entry the unforced one then hits.
func TestEnginePruneGatherBypasses(t *testing.T) {
	eng, _, pt, _ := cacheEngineSetup(t)
	data := []byte(apiDoc)

	res, info, err := eng.PruneGatherDigest(pt, data, "", StreamOptions{Engine: PrunePipelined})
	if err != nil {
		t.Fatal(err)
	}
	forced := res.Bytes()
	res.Close()
	if !info.Enabled || info.Hit {
		t.Fatalf("forced pipelined engine: %+v, want a cache miss", info)
	}
	res, info, err = eng.PruneGatherDigest(pt, data, "", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hit || !bytes.Equal(res.Bytes(), forced) {
		t.Fatalf("unforced prune after a forced one: %+v, %q vs %q", info, res.Bytes(), forced)
	}
	res.Close()

	off := NewEngine(EngineOptions{})
	if off.ResultCacheEnabled() {
		t.Fatalf("engine without ResultCacheBytes has a cache")
	}
	res, info, err = off.PruneGatherDigest(pt, data, "", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	if info.Enabled {
		t.Fatalf("disabled cache reported Enabled: %+v", info)
	}
	if _, ok := off.DigestBytes(data); ok {
		t.Fatalf("disabled cache still digests")
	}
}

// TestEnginePruneBytesCached: a cached result flushed to a writer, cold
// and warm, is byte-identical to the projector's own streaming prune of
// the same bytes.
func TestEnginePruneBytesCached(t *testing.T) {
	eng, _, pt, _ := cacheEngineSetup(t)
	data := []byte(apiDoc)

	var want bytes.Buffer
	wantStats, err := pt.PruneStreamOpts(&want, bytes.NewReader(data), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, info, err := eng.PruneGatherDigest(pt, data, "", StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if _, err := res.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("round %d: output differs:\n got %q\nwant %q", i, got.Bytes(), want.Bytes())
		}
		if res.Stats != wantStats {
			t.Fatalf("round %d: stats %+v != %+v", i, res.Stats, wantStats)
		}
		if info.Hit != (i > 0) {
			t.Fatalf("round %d: hit=%v", i, info.Hit)
		}
		res.Close()
	}
}

// TestEngineMultiGatherUnaffectedByResultCache: the shared-scan multi
// path involves no engine; with one projector's output for this very
// document sitting in an engine's result cache, its outputs still match
// serial prunes and no result-cache counters move.
func TestEngineMultiGatherUnaffectedByResultCache(t *testing.T) {
	eng, _, pt, py := cacheEngineSetup(t)
	data := []byte(apiDoc)
	cached, _, err := eng.PruneGatherDigest(pt, data, "", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cached.Close()

	results, errs := PruneMultiGather([]*Projector{pt, py}, data, StreamOptions{})
	for j, p := range []*Projector{pt, py} {
		if errs[j] != nil {
			t.Fatalf("projector %d: %v", j, errs[j])
		}
		serial, err := p.PruneGather(data, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(results[j].Bytes(), serial.Bytes()) {
			t.Fatalf("projector %d: multi output differs from serial", j)
		}
		serial.Close()
		results[j].Close()
	}
	if m := eng.Metrics(); m.ResultCache.Hits != 0 || m.ResultCache.Misses != 1 {
		t.Fatalf("multi-projector path touched the result cache: %+v", m)
	}
}

// TestPruneResultReleaseContract: double-Close is a guarded no-op and
// use-after-Close degenerates safely — for both pooled-gather-backed
// and cache-entry-backed results.
func TestPruneResultReleaseContract(t *testing.T) {
	eng, _, pt, _ := cacheEngineSetup(t)
	data := []byte(apiDoc)

	cold, _, err := eng.PruneGatherDigest(pt, data, "", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm, info, err := eng.PruneGatherDigest(pt, data, "", StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hit {
		t.Fatal("second prune missed")
	}

	for name, res := range map[string]*PruneResult{"gather": cold, "cached": warm} {
		if res.Len() <= 0 {
			t.Fatalf("%s: empty result before Close", name)
		}
		if err := res.Close(); err != nil {
			t.Fatalf("%s: first Close: %v", name, err)
		}
		// Double-Close must not release anyone else's pooled state — in
		// particular not after the pool reissued the gather to the prune
		// below.
		other, err := pt.PruneGather(data, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Close(); err != nil {
			t.Fatalf("%s: second Close: %v", name, err)
		}
		if got := other.Bytes(); len(got) == 0 {
			t.Fatalf("%s: double-Close clobbered a live result", name)
		}
		other.Close()

		if _, err := res.WriteTo(&bytes.Buffer{}); !errors.Is(err, ErrResultReleased) {
			t.Fatalf("%s: WriteTo after Close = %v, want ErrResultReleased", name, err)
		}
		if res.Bytes() != nil || res.Len() != 0 || res.RawBytes() != 0 || res.Segments() != 0 {
			t.Fatalf("%s: accessors alive after Close", name)
		}
	}
}

// TestGrammarCollectableAfterCachedPrune: the grammar fingerprint a
// result-cache key needs is memoised on the grammar, so pruning through
// the engine's cache pins nothing: once the DTD and its projectors are
// dropped the grammar is garbage, though the cached output stays. (It
// used to sit in a package-level map keyed by *dtd.DTD for the life of
// the process — one entry per document for InferDTD users.)
func TestGrammarCollectableAfterCachedPrune(t *testing.T) {
	eng := NewEngine(EngineOptions{ResultCacheBytes: 1 << 20})
	collected := make(chan struct{})
	func() {
		d, err := ParseDTDString(apiDTD, "")
		if err != nil {
			t.Fatal(err)
		}
		q, err := CompileXPath("//book/title")
		if err != nil {
			t.Fatal(err)
		}
		p, err := d.Infer(Materialized, q)
		if err != nil {
			t.Fatal(err)
		}
		res, info, err := eng.PruneGatherDigest(p, []byte(apiDoc), "", StreamOptions{})
		if err != nil || !info.Enabled {
			t.Fatalf("info=%+v err=%v", info, err)
		}
		res.Close()
		runtime.SetFinalizer(d.d, func(*dtd.DTD) { close(collected) })
	}()
	// Two collections: the first retires the prune's pooled state.
	runtime.GC()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(2 * time.Second):
		t.Fatal("the grammar is still reachable after its DTD and projectors were dropped")
	}
	if m := eng.Metrics().ResultCache; m.Entries != 1 {
		t.Fatalf("the cached output went with the grammar: %+v", m)
	}
}
