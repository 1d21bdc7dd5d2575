package prune

import (
	"bytes"
	"io"
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/testkit"
	"xmlproj/internal/xmark"
)

// benchProjectors are the π shapes the streaming pruner meets in
// practice: a low-selectivity projector keeping a thin slice of the
// document (most subtrees skip-scanned), a mid one, and the identity
// projector (everything emitted as verbatim spans, validated or not).
// root keeps the root element alone: every child of site is one
// discarded subtree, so its rows time the structural skip and little
// else.
func benchProjectors(d *dtd.DTD) map[string]dtd.NameSet {
	root := dtd.NewNameSet("site")
	low := dtd.NewNameSet("site", "regions", "africa", "item", "item@id",
		"location", "location#text")
	mid := dtd.NewNameSet("site", "people", "person", "person@id", "name",
		"name#text", "emailaddress", "emailaddress#text", "open_auctions",
		"open_auction", "open_auction@id", "initial", "initial#text")
	full := dtd.NewNameSet()
	for _, n := range testkit.Names(d) {
		full.Add(n)
	}
	return map[string]dtd.NameSet{"root": root, "low": low, "mid": mid, "full": full}
}

func benchDoc(b *testing.B) (*dtd.DTD, []byte) {
	b.Helper()
	d := xmark.DTD()
	doc := xmark.NewGenerator(0.01, 42).Document()
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf); err != nil {
		b.Fatal(err)
	}
	return d, buf.Bytes()
}

func benchStream(b *testing.B, eng Engine, pi dtd.NameSet, validate bool) {
	d, src := benchDoc(b)
	opts := StreamOptions{Engine: eng, Validate: validate, Projection: d.CompileProjection(pi)}
	rd := bytes.NewReader(src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(src)
		if _, err := Stream(io.Discard, rd, d, pi, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// benchOracle is benchStream for the encoding/xml oracle, which is no
// engine of run's and is called as the differential tests call it.
func benchOracle(b *testing.B, pi dtd.NameSet, validate bool) {
	d, src := benchDoc(b)
	rd := bytes.NewReader(src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(src)
		if _, err := oracleStream(io.Discard, rd, d, pi, validate); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGather measures the span-gather path: same prune, but output
// recorded as spans over the input instead of copied to a writer.
// Steady state it allocates nothing (pooled gather, reused span list).
func benchGather(b *testing.B, eng Engine, pi dtd.NameSet, validate bool) {
	d, src := benchDoc(b)
	opts := StreamOptions{Engine: eng, Validate: validate, Projection: d.CompileProjection(pi)}
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, _, err := StreamGather(src, d, pi, opts)
		if err != nil {
			b.Fatal(err)
		}
		g.Close()
	}
}

// BenchmarkStreamPrune compares the byte-level scanner against the
// encoding/xml oracle (the decoder rows) on an XMark document across projector
// selectivities, with and without fused validation. The scanner must
// beat the decoder by ≥2x throughput and ≥10x fewer allocations on the
// low-selectivity projector, and the validating scanner must stay
// within ~25% of the unvalidated one (dense DFAs keep validation on the
// verbatim-span and skip-scan fast paths).
//
// The auto cases are the serial scanner under the default engine and
// must match it.
func BenchmarkStreamPrune(b *testing.B) {
	d := xmark.DTD()
	for name, pi := range benchProjectors(d) {
		pi := pi
		b.Run("scanner/"+name, func(b *testing.B) { benchStream(b, EngineScanner, pi, false) })
		b.Run("decoder/"+name, func(b *testing.B) { benchOracle(b, pi, false) })
		b.Run("scanner-validate/"+name, func(b *testing.B) { benchStream(b, EngineScanner, pi, true) })
		b.Run("decoder-validate/"+name, func(b *testing.B) { benchOracle(b, pi, true) })
		b.Run("auto/"+name, func(b *testing.B) { benchStream(b, EngineAuto, pi, false) })
		b.Run("gather/"+name, func(b *testing.B) { benchGather(b, EngineScanner, pi, false) })
		b.Run("gather-validate/"+name, func(b *testing.B) { benchGather(b, EngineScanner, pi, true) })
	}
}
