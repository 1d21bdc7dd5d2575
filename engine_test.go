package xmlproj

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/xmark"
)

// TestEngineInferCachedConcurrent: 8 concurrent InferCached calls for
// the same query bunch perform exactly one inference, and a warm cache
// answers a second burst without inferring at all.
func TestEngineInferCachedConcurrent(t *testing.T) {
	d, _ := apiSetup(t)
	eng := NewEngine(EngineOptions{})
	q1, err := CompileXPath("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	q2, err := CompileXQuery("for $b in /bib/book return $b/author")
	if err != nil {
		t.Fatal(err)
	}

	const N = 8
	burst := func() {
		var wg sync.WaitGroup
		for i := 0; i < N; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p, err := eng.InferCached(d, Materialized, q1, q2)
				if err != nil {
					t.Error(err)
					return
				}
				if !p.Has("title") || !p.Has("author") {
					t.Errorf("projector incomplete: %v", p.Names())
				}
			}()
		}
		wg.Wait()
	}

	burst()
	m := eng.Metrics()
	if m.Inferences != 1 {
		t.Fatalf("cold burst of %d ran %d inferences, want 1 (metrics %+v)", N, m.Inferences, m)
	}
	if m.CacheMisses != 1 || m.CacheHits+m.Coalesced != N-1 {
		t.Fatalf("cold burst metrics: %+v", m)
	}

	burst() // warm
	m = eng.Metrics()
	if m.Inferences != 1 {
		t.Fatalf("warm cache re-inferred: %+v", m)
	}
	if m.CacheHits < N {
		t.Fatalf("warm burst not served from cache: %+v", m)
	}

	// The bunch is canonicalised: same queries, different order and a
	// duplicate — still the same cache entry.
	if _, err := eng.InferCached(d, Materialized, q2, q1, q2); err != nil {
		t.Fatal(err)
	}
	if m = eng.Metrics(); m.Inferences != 1 {
		t.Fatalf("permuted bunch missed the cache: %+v", m)
	}
	// A different mode is a different workload.
	if _, err := eng.InferCached(d, NodesOnly, q1, q2); err != nil {
		t.Fatal(err)
	}
	if m = eng.Metrics(); m.Inferences != 2 {
		t.Fatalf("mode not part of the key: %+v", m)
	}
	if m.CacheEntries != 2 {
		t.Fatalf("CacheEntries = %d, want 2", m.CacheEntries)
	}
}

// TestEngineSchemaKeyedCache: structurally identical schemas share a
// cache entry; a different schema does not.
func TestEngineSchemaKeyedCache(t *testing.T) {
	eng := NewEngine(EngineOptions{})
	q, err := CompileXPath("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := apiSetup(t)
	d2, err := ParseDTDString(apiDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.InferCached(d1, Materialized, q); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.InferCached(d2, Materialized, q); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.Inferences != 1 {
		t.Fatalf("identical schema re-inferred: %+v", m)
	}
	d3, err := ParseDTDString(`<!ELEMENT bib (book*)><!ELEMENT book (title)><!ELEMENT title (#PCDATA)>`, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.InferCached(d3, Materialized, q); err != nil {
		t.Fatal(err)
	}
	if m := eng.Metrics(); m.Inferences != 2 {
		t.Fatalf("different schema hit the cache: %+v", m)
	}
}

// TestEnginePruneBatch drives the public batch API end to end.
func TestEnginePruneBatch(t *testing.T) {
	d, _ := apiSetup(t)
	eng := NewEngine(EngineOptions{})
	q, err := CompileXPath("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.InferCached(d, Materialized, q)
	if err != nil {
		t.Fatal(err)
	}
	const n = 9
	jobs := make([]BatchJob, n)
	outs := make([]*bytes.Buffer, n)
	for i := range jobs {
		outs[i] = &bytes.Buffer{}
		doc := fmt.Sprintf(`<bib><book isbn="%d"><title>T%d</title><author>A</author></book></bib>`, i, i)
		jobs[i] = BatchJob{Name: fmt.Sprintf("doc%d", i), Src: strings.NewReader(doc), Dst: outs[i]}
	}
	results, agg, err := eng.PruneBatch(context.Background(), p, jobs, BatchOptions{Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %s: %v", r.Name, r.Err)
		}
		if want := fmt.Sprintf("<title>T%d</title>", i); !strings.Contains(outs[i].String(), want) {
			t.Fatalf("job %d output = %s", i, outs[i].String())
		}
	}
	if agg.Pruned != n || agg.Failed != 0 || agg.Skipped != 0 {
		t.Fatalf("aggregate: %+v", agg)
	}
	if agg.BytesIn == 0 || agg.BytesOut == 0 || agg.MaxDepth != 3 {
		t.Fatalf("aggregate stats: %+v", agg)
	}
	if m := eng.Metrics(); m.DocsPruned != n || m.BytesIn != agg.BytesIn {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestDerivedFormsComputedOnce: once InferCached has answered a workload,
// a later ad-hoc request for it — a fresh Projector wrapper around the
// cached inference, as every xmlprojd ?q= request gets — neither
// compiles π nor hashes it, on the cached gather route or on the
// streamed one: the decision table and both result fingerprints live on
// the projector the inference cache stores. The ceilings hold what those
// routes allocate besides (the bunch key, the wrapper, the result, the
// scanner's two buffers): at the parent of this change the gather hit
// read 39, hashing π per wrapper, and the streamed prune 16, compiling it
// per call (5 allocations on this small DTD, 18 on XMark's).
func TestDerivedFormsComputedOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector empties sync.Pools, so the routes allocate their buffers")
	}
	d, _ := apiSetup(t)
	eng := NewEngine(EngineOptions{ResultCacheBytes: 1 << 20})
	q, err := CompileXPath("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(apiDoc)
	digest, _ := eng.DigestBytes(data)
	first, err := eng.InferCached(d, Materialized, q)
	if err != nil {
		t.Fatal(err)
	}
	request := func(route func(p *Projector)) float64 {
		route(first)
		return testing.AllocsPerRun(50, func() {
			p, err := eng.InferCached(d, Materialized, q)
			if err != nil {
				t.Fatal(err)
			}
			if p == first || p.pr != first.pr {
				t.Fatal("want a fresh wrapper around the cached inference")
			}
			route(p)
		})
	}
	gather := request(func(p *Projector) {
		res, info, err := eng.PruneGatherDigest(p, data, digest, StreamOptions{})
		if err != nil || (p != first && !info.Hit) {
			t.Fatalf("hit=%v err=%v", info.Hit, err)
		}
		res.Close()
	})
	var out bytes.Buffer
	stream := request(func(p *Projector) {
		out.Reset()
		if _, err := p.PruneStreamOpts(&out, bytes.NewReader(data), StreamOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	const gatherCeiling, streamCeiling = 16, 12
	if gather > gatherCeiling || stream > streamCeiling {
		t.Fatalf("a repeat ad-hoc request allocates %v (gather hit, want <= %d) and %v (streamed, want <= %d): it compiled or hashed π again",
			gather, gatherCeiling, stream, streamCeiling)
	}
	t.Logf("allocations per repeat ad-hoc request: gather hit %v, streamed %v", gather, stream)
}

// sink keeps the compiler from discarding a measured call.
var sink *dtd.Projection

// BenchmarkDerivedForms takes the numbers DESIGN §11 quotes for the
// caches that are not there: what it costs to obtain a compiled π and a
// result fingerprint from a projector after first use (the memo on
// core.Projector), against compiling it, and what it costs to fuse N
// members' tables per shared-scan pass (fuse: what PruneMultiGather does
// before scanning) against dtd.CombineProjections alone.
func BenchmarkDerivedForms(b *testing.B) {
	d, err := ParseDTDString(xmark.DTDSource, "site")
	if err != nil {
		b.Fatal(err)
	}
	queries := []string{
		`/site/regions/africa/item/location`, `//person[emailaddress]/name`, `/site/regions//item`, `//node()`,
		`//closed_auction/price`, `//open_auction[bidder]/initial`, `/site/categories/category/name`, `//person/profile/interest`,
	}
	projectors := func(n int) []*Projector {
		ps := make([]*Projector, n)
		for j := range ps {
			q, err := Compile(queries[j%len(queries)])
			if err != nil {
				b.Fatal(err)
			}
			if ps[j], err = d.Infer(Materialized, q); err != nil {
				b.Fatal(err)
			}
		}
		return ps
	}
	for j, name := range []string{"low", "mid", "item", "full"} {
		p := projectors(4)[j]
		size := fmt.Sprintf("%s-%dnames", name, len(p.pr.Names))
		b.Run("compiled/"+size, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = p.pr.Compiled()
			}
		})
		b.Run("fingerprint/"+size, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if p.pr.ResultFingerprint(i&1 == 0) == "" {
					b.Fatal("empty fingerprint")
				}
			}
		})
		b.Run("compile/"+size, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = p.d.CompileProjection(p.pr.Names)
			}
		})
	}
	for _, n := range []int{4, 16, 64} {
		ps := projectors(n)
		tables := make([]*dtd.Projection, n)
		b.Run(fmt.Sprintf("fuse/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				members := make([]*dtd.Projection, n)
				for j, p := range ps {
					members[j] = p.pr.Compiled()
				}
				if sink, err = dtd.CombineProjections(members); err != nil {
					b.Fatal(err)
				}
			}
		})
		for j, p := range ps {
			tables[j] = p.pr.Compiled()
		}
		b.Run(fmt.Sprintf("combine/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if sink, err = dtd.CombineProjections(tables); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
