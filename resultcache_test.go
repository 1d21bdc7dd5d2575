package xmlproj

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
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
	eng, _, pt, py := cacheEngineSetup(t)
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

				compiled := eng.Metrics().ProjectionHits
				warm, winfo, err := eng.PruneGatherDigest(p, []byte(doc), "", opts)
				if err != nil {
					t.Fatalf("%s: warm cached prune: %v", label, err)
				}
				if !winfo.Hit {
					t.Fatalf("%s: warm prune missed the cache", label)
				}
				if got := eng.Metrics().ProjectionHits; got != compiled {
					t.Fatalf("%s: a result-cache hit looked up the compiled projection (projection_hits %d -> %d)", label, compiled, got)
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
}

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

// TestEnginePruneGatherBypasses: a forced pipelined engine skips the
// cache entirely; a disabled engine never reports Enabled.
func TestEnginePruneGatherBypasses(t *testing.T) {
	eng, _, pt, _ := cacheEngineSetup(t)
	data := []byte(apiDoc)

	res, info, err := eng.PruneGatherDigest(pt, data, "", StreamOptions{Engine: PrunePipelined})
	if err != nil {
		t.Fatal(err)
	}
	res.Close()
	if info.Enabled {
		t.Fatalf("forced pipelined engine touched the cache: %+v", info)
	}
	if m := eng.Metrics(); m.ResultCache.Misses != 0 || m.ResultCache.Hits != 0 {
		t.Fatalf("bypassed prunes moved cache counters: %+v", m)
	}

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
// path bypasses the result cache by construction; with a cache
// configured its outputs still match serial prunes and no result-cache
// counters move.
func TestEngineMultiGatherUnaffectedByResultCache(t *testing.T) {
	eng, _, pt, py := cacheEngineSetup(t)
	data := []byte(apiDoc)

	results, errs, _ := eng.PruneMultiGather([]*Projector{pt, py}, data, StreamOptions{})
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
	if m := eng.Metrics(); m.ResultCache.Hits != 0 || m.ResultCache.Misses != 0 {
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
