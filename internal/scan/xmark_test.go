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
	"xmlproj/internal/testkit"
	"xmlproj/internal/xmark"
)

// TestSoloPruneAllocs: with a pooled pruner and a compiled projection, a
// single-projector prune of in-memory input allocates nothing — into a
// gather list, through a reused bufio.Writer or into a handler, at any
// selectivity, validated or not — so passing its Source and Sink by
// value costs nothing either. (README Performance advertises it.)
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
	for _, n := range testkit.Names(d) {
		full.Add(n)
	}
	pis := map[string]dtd.NameSet{
		"low": dtd.NewNameSet("site", "regions", "africa", "item", "item@id", "location", "location#text"),
		"mid": dtd.NewNameSet("site", "people", "person", "person@id", "name", "name#text",
			"emailaddress", "emailaddress#text", "open_auctions", "open_auction", "open_auction@id",
			"initial", "initial#text"),
		"full": full,
	}
	sinks := map[string]scan.Sink{
		"spans":   {Spans: new(scan.SpanList)},
		"writer":  {W: bufio.NewWriterSize(io.Discard, 64<<10)},
		"handler": {H: nopHandler{}},
	}
	for name, pi := range pis {
		p := d.CompileProjection(pi)
		for _, validate := range []bool{false, true} {
			opts := scan.Options{Validate: validate}
			for sink, out := range sinks {
				allocs := testing.AllocsPerRun(10, func() {
					if _, err := scan.Prune(scan.Source{Data: doc.Bytes()}, out, d, p, opts); err != nil {
						t.Fatal(err)
					}
				})
				if allocs != 0 {
					t.Errorf("%s validate=%v, %s sink: %v allocs/op, want 0", name, validate, sink, allocs)
				}
			}
		}
	}
}

// nopHandler is a table sink that builds nothing.
type nopHandler struct{}

func (nopHandler) StartElement([]byte, []scan.Attr) {}
func (nopHandler) Text([]byte)                      {}
func (nopHandler) EndElement()                      {}
