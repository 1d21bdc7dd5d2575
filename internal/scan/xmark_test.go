package scan_test

// The tests that need an XMark document live outside the package:
// xmark builds trees, and internal/tree loads through this package.

import (
	"bufio"
	"bytes"
	"io"
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/scan"
	"xmlproj/internal/xmark"
)

// TestPlanUnchangedByCollapseXMark is TestPlanUnchangedByCollapse's
// XMark half.
func TestPlanUnchangedByCollapseXMark(t *testing.T) {
	xd := xmark.DTD()
	xdoc := xmark.NewGenerator(0.01, 7).Document().XML()
	for name, pi := range map[string]dtd.NameSet{
		"xmark all":  dtd.NewNameSet(xd.Names()...),
		"xmark root": dtd.NewNameSet(xd.Root),
		"xmark mid":  dtd.NewNameSet("site", "people", "person", "name", "name#text", "open_auctions"),
	} {
		scan.CheckPlanUnchanged(t, name, xdoc, xd.CompileProjection(pi))
	}
}

// TestSoloPruneAllocs: with a pooled pruner and a compiled projection, a
// single-projector prune of in-memory input allocates nothing — into a
// gather list or through a reused bufio.Writer, at any selectivity,
// validated or not. (README Performance advertises it.)
func TestSoloPruneAllocs(t *testing.T) {
	if scan.RaceEnabled {
		t.Skip("the race detector allocates")
	}
	d := xmark.DTD()
	var doc bytes.Buffer
	if err := xmark.NewGenerator(0.002, 42).Document().WriteXML(&doc); err != nil {
		t.Fatal(err)
	}
	full := dtd.NewNameSet()
	for _, n := range d.Names() {
		full.Add(n)
	}
	pis := map[string]dtd.NameSet{
		"low": dtd.NewNameSet("site", "regions", "africa", "item", "item@id", "location", "location#text"),
		"mid": dtd.NewNameSet("site", "people", "person", "person@id", "name", "name#text",
			"emailaddress", "emailaddress#text", "open_auctions", "open_auction", "open_auction@id",
			"initial", "initial#text"),
		"full": full,
	}
	sl := new(scan.SpanList)
	bw := bufio.NewWriterSize(io.Discard, 64<<10)
	for name, pi := range pis {
		p := d.CompileProjection(pi)
		for _, validate := range []bool{false, true} {
			opts := scan.Options{Validate: validate}
			gather := testing.AllocsPerRun(10, func() {
				if _, err := scan.PruneGather(sl, doc.Bytes(), d, p, opts); err != nil {
					t.Fatal(err)
				}
			})
			stream := testing.AllocsPerRun(10, func() {
				if _, err := scan.PruneBytes(bw, doc.Bytes(), d, p, opts); err != nil {
					t.Fatal(err)
				}
			})
			if gather != 0 || stream != 0 {
				t.Errorf("%s validate=%v: PruneGather %v allocs/op, PruneBytes %v allocs/op, want 0", name, validate, gather, stream)
			}
		}
	}
}
