package xmlproj

import (
	"bytes"
	"strings"
	"testing"
)

// multiAPIProjectors infers three projectors of different selectivity
// from the shared test DTD.
func multiAPIProjectors(t *testing.T, d *DTD) []*Projector {
	t.Helper()
	var ps []*Projector
	for _, src := range []string{
		`//book[author = "Dante"]/title`,
		`//book/year`,
		`/bib/book/@isbn`,
	} {
		q, err := CompileXPath(src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := d.Infer(Materialized, q)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	return ps
}

func TestPruneMultiGatherMatchesSerial(t *testing.T) {
	d, _ := apiSetup(t)
	ps := multiAPIProjectors(t, d)
	data := []byte(apiDoc)
	for _, validate := range []bool{false, true} {
		opts := StreamOptions{Validate: validate}
		results, errs := PruneMultiGather(ps, data, opts)
		for j, p := range ps {
			serial, serr := p.PruneGather(data, opts)
			if (serr == nil) != (errs[j] == nil) {
				t.Fatalf("projector %d: multi verdict %v, serial %v", j, errs[j], serr)
			}
			if serr != nil {
				continue
			}
			if got, want := string(results[j].Bytes()), string(serial.Bytes()); got != want {
				t.Fatalf("projector %d output diverges\nmulti:  %q\nserial: %q", j, got, want)
			}
			if results[j].Stats != serial.Stats {
				t.Fatalf("projector %d stats diverge\nmulti:  %+v\nserial: %+v", j, results[j].Stats, serial.Stats)
			}
			serial.Close()
			results[j].Close()
		}
	}
}

// TestPruneMultiGatherSetSizes: with no Engine involved — the fused
// table is built per pass from the members' own compiled tables — every
// member's output equals its serial prune at N = 1, 4, 64 (the widest
// single table) and 65 (sharded into two passes).
func TestPruneMultiGatherSetSizes(t *testing.T) {
	d, _ := apiSetup(t)
	base := multiAPIProjectors(t, d)
	data := []byte(apiDoc)
	want := make([][]byte, len(base))
	for i, p := range base {
		serial, err := p.PruneGather(data, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = serial.Bytes()
		serial.Close()
	}
	for _, n := range []int{1, 4, MaxFusedProjectors, MaxFusedProjectors + 1} {
		ps := make([]*Projector, n)
		for j := range ps {
			ps[j] = base[j%len(base)]
		}
		results, errs := PruneMultiGather(ps, data, StreamOptions{})
		for j := range ps {
			if errs[j] != nil {
				t.Fatalf("N=%d member %d: %v", n, j, errs[j])
			}
			if got := results[j].Bytes(); !bytes.Equal(got, want[j%len(base)]) {
				t.Fatalf("N=%d member %d diverges\nmulti:  %q\nserial: %q", n, j, got, want[j%len(base)])
			}
			results[j].Close()
		}
	}
}

// TestPruneMultiWriters: each result of the gather form, flushed to a
// writer, is the serial streaming prune's output, and BytesOut is what
// was written.
func TestPruneMultiWriters(t *testing.T) {
	d, _ := apiSetup(t)
	ps := multiAPIProjectors(t, d)
	results, errs := PruneMultiGather(ps, []byte(apiDoc), StreamOptions{})
	for j, p := range ps {
		if errs[j] != nil {
			t.Fatalf("projector %d: %v", j, errs[j])
		}
		var out, want bytes.Buffer
		n, err := results[j].WriteTo(&out)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.PruneStream(&want, strings.NewReader(apiDoc)); err != nil {
			t.Fatal(err)
		}
		if out.String() != want.String() {
			t.Fatalf("projector %d output diverges\nmulti:  %q\nserial: %q", j, out.String(), want.String())
		}
		if results[j].Stats.BytesOut != n || n != int64(out.Len()) {
			t.Fatalf("projector %d BytesOut = %d, WriteTo = %d, wrote %d", j, results[j].Stats.BytesOut, n, out.Len())
		}
		results[j].Close()
	}
}

func TestPruneMultiRejectsMixedDTDs(t *testing.T) {
	d, _ := apiSetup(t)
	other, err := ParseDTDString(apiDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	ps := multiAPIProjectors(t, d)
	q, err := CompileXPath(`//book/title`)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.Infer(Materialized, q)
	if err != nil {
		t.Fatal(err)
	}
	results, errs := PruneMultiGather(append(ps, foreign), []byte(apiDoc), StreamOptions{})
	for j := range errs {
		if errs[j] == nil {
			t.Fatalf("projector %d accepted a mixed-DTD set", j)
		}
		if results[j] != nil {
			t.Fatalf("projector %d returned a result from a rejected set", j)
		}
	}
}
