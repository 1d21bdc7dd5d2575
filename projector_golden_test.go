package xmlproj

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"reflect"
	"strings"
	"testing"

	"xmlproj/internal/xmark"
	"xmlproj/internal/xpathmark"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/projectors.golden from what is inferred now")

const projectorGolden = "testdata/projectors.golden"

// benchmarkQueries is the 43-query set of §6: XMark QM01–QM20 and
// XPathMark QP01–QP23, in that order.
func benchmarkQueries() (ids, sources []string) {
	for _, q := range xmark.Queries {
		ids, sources = append(ids, q.ID), append(sources, q.Source)
	}
	for _, q := range xpathmark.Queries {
		ids, sources = append(ids, q.ID), append(sources, q.Source)
	}
	return ids, sources
}

// inferBenchmark infers the materialised projector of every benchmark
// query on the XMark DTD, the way xqrun -prune and xmlprune do.
func inferBenchmark(t *testing.T) (*DTD, []string, []*Projector) {
	t.Helper()
	d, err := ParseDTDString(xmark.DTDSource, "site")
	if err != nil {
		t.Fatal(err)
	}
	ids, sources := benchmarkQueries()
	ps := make([]*Projector, len(ids))
	for i, src := range sources {
		q, err := Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", ids[i], err)
		}
		if ps[i], err = d.Infer(Materialized, q); err != nil {
			t.Fatalf("%s: %v", ids[i], err)
		}
	}
	return d, ids, ps
}

// TestProjectorsMatchGolden pins the 43 projectors name for name. The
// golden file was written by the map-based inferencer the bit-row one
// replaced (it survives as internal/core's test oracle), so a difference
// here is a change of π, not of its representation.
func TestProjectorsMatchGolden(t *testing.T) {
	_, ids, ps := inferBenchmark(t)
	if len(ids) != 43 {
		t.Fatalf("benchmark set has %d queries, want 43", len(ids))
	}
	if *updateGolden {
		var buf bytes.Buffer
		for i, p := range ps {
			buf.WriteString(ids[i] + " " + strings.Join(p.Names(), " ") + "\n")
		}
		if err := os.WriteFile(projectorGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(projectorGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string][]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		want[fields[0]] = fields[1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(ids) {
		t.Fatalf("golden has %d projectors, want %d", len(want), len(ids))
	}
	for i, p := range ps {
		if got := p.Names(); !reflect.DeepEqual(got, want[ids[i]]) {
			t.Errorf("%s: π differs from the golden\n got %v\nwant %v", ids[i], got, want[ids[i]])
		}
	}
}

// TestKeepsAll: π knows when it is useless. //node() and QP13
// (/site//node()) keep all 126 root-reachable names of the XMark
// grammar; none of the other 42 benchmark queries does, and a π short of
// one attribute name does not either.
func TestKeepsAll(t *testing.T) {
	d, ids, ps := inferBenchmark(t)
	for i, p := range ps {
		if got, want := p.KeepsAll(), ids[i] == "QP13"; got != want {
			t.Errorf("%s: KeepsAll = %v, want %v (π has %d names)", ids[i], got, want, len(p.Names()))
		}
	}
	q, err := Compile("//node()")
	if err != nil {
		t.Fatal(err)
	}
	all, err := d.Infer(Materialized, q)
	if err != nil {
		t.Fatal(err)
	}
	if !all.KeepsAll() || len(all.Names()) != 126 || all.KeepRatio() != 1 {
		t.Fatalf("//node(): KeepsAll = %v with %d names, ratio %v; want all 126", all.KeepsAll(), len(all.Names()), all.KeepRatio())
	}
	var short []string
	for _, n := range all.Names() {
		if n != "person@id" {
			short = append(short, n)
		}
	}
	p, err := d.LoadProjector([]byte(strings.Join(short, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if p.KeepsAll() {
		t.Fatal("a π without person@id keeps all")
	}
	if full, err := d.LoadProjector([]byte(strings.Join(all.Names(), "\n"))); err != nil || !full.KeepsAll() {
		t.Fatalf("a loaded π with every name: KeepsAll = %v, err %v", full.KeepsAll(), err)
	}
}

// TestLoadProjectorResolvesNames: every name of a projector file goes
// through the grammar's symbol table. What MarshalText wrote loads back
// to the same π for all 43 projectors; a name the grammar does not have
// is rejected, except elem@attr on a declared element (the documented
// route for attributes the DTD does not declare).
func TestLoadProjectorResolvesNames(t *testing.T) {
	d, ids, ps := inferBenchmark(t)
	for i, p := range ps {
		text, err := p.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		back, err := d.LoadProjector(text)
		if err != nil {
			t.Fatalf("%s: %v", ids[i], err)
		}
		if !reflect.DeepEqual(back.Names(), p.Names()) {
			t.Errorf("%s: round trip changed π:\n got %v\nwant %v", ids[i], back.Names(), p.Names())
		}
	}
	for _, bad := range []string{"person#bogus", "nosuch", "nosuch#text", "nosuch@id", "site#text", "@id", "name#text@x"} {
		if _, err := d.LoadProjector([]byte("site\n" + bad)); err == nil {
			t.Errorf("LoadProjector accepted %q", bad)
		}
	}
	for _, ok := range []string{"person", "name#text", "person@id", "person@undeclared"} {
		p, err := d.LoadProjector([]byte(ok))
		if err != nil {
			t.Errorf("LoadProjector rejected %q: %v", ok, err)
		} else if !p.Has(ok) || !p.Has("site") {
			t.Errorf("LoadProjector(%q) = %v", ok, p.Names())
		}
	}
}
