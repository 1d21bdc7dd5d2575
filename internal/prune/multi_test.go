package prune

import (
	"bytes"
	"math/rand"
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/xmark"
)

// The shared-scan multi-pruner is differentially tested against the
// serial span-gather path: for every projector in the set, the fused
// pass must reproduce the serial StreamGather's verdict, rendered
// bytes and stats exactly — with and without validation, including
// sets where validation kills some projectors and not others, and
// documents malformed only where some projectors do not look. The
// serial gather is the same automaton at N = 1, so each serial result is
// itself held to the encoding/xml oracle first (checkOracle).

// checkMulti runs StreamMultiGather over data and requires
// per-projector agreement with serial StreamGather runs: verdict, stats,
// and the bytes both materialised and flushed through WriteTo (the form
// xmlprune -proj and /multiprune use).
func checkMulti(t *testing.T, label string, data []byte, d *dtd.DTD, pis []dtd.NameSet, validate bool) {
	t.Helper()
	sopts := StreamOptions{Validate: validate, Engine: EngineScanner}
	type want struct {
		ok  bool
		out string
		st  Stats
	}
	wants := make([]want, len(pis))
	for j, pi := range pis {
		g, st, err := StreamGather(data, d, pi, sopts)
		if err == nil {
			wants[j] = want{ok: true, out: string(g.Bytes()), st: st}
			g.Close()
		}
		checkOracle(t, string(data), d, pi, validate, wants[j].out, st, err)
	}
	gathers, stats, errs := StreamMultiGather(data, d, pis, MultiOptions{Validate: validate})
	for j := range pis {
		if wants[j].ok != (errs[j] == nil) {
			t.Fatalf("%s: multi verdict diverges from serial (validate=%v, projector %d)\nserial ok: %v\nmulti err: %v",
				label, validate, j, wants[j].ok, errs[j])
		}
		if errs[j] != nil {
			if gathers[j] != nil {
				t.Fatalf("%s: projector %d returned a Gather alongside an error", label, j)
			}
			continue
		}
		if got := string(gathers[j].Bytes()); got != wants[j].out {
			t.Fatalf("%s: multi output diverges (validate=%v, projector %d)\nmulti:  %q\nserial: %q",
				label, validate, j, got, wants[j].out)
		}
		var wb bytes.Buffer
		if n, err := gathers[j].WriteTo(&wb); err != nil || wb.String() != wants[j].out || n != int64(len(wants[j].out)) {
			t.Fatalf("%s: multi WriteTo mismatch (projector %d, n=%d, err=%v)", label, j, n, err)
		}
		if stats[j] != wants[j].st {
			t.Fatalf("%s: multi stats diverge (validate=%v, projector %d)\nmulti:  %+v\nserial: %+v",
				label, validate, j, stats[j], wants[j].st)
		}
		gathers[j].Close()
	}
}

var multiBibPis = []dtd.NameSet{
	dtd.NewNameSet("bib", "book", "title", "title#text", "author", "author#text", "year", "year#text", "book@isbn", "book@lang"),
	dtd.NewNameSet("bib", "book", "title", "title#text"),
	dtd.NewNameSet("bib", "book", "book@isbn"),
	dtd.NewNameSet("bib"),
}

func TestMultiMatchesSerialFixed(t *testing.T) {
	d := mustDTD(t)
	for _, doc := range fixedBibDocs {
		for _, v := range []bool{false, true} {
			checkMulti(t, "fixed", []byte(doc), d, multiBibPis, v)
		}
	}
}

// TestMultiMatchesSerialInvalid feeds documents that violate the DTD:
// validation verdicts are per projector (a projector that never keeps
// the violating region accepts, one that keeps it fails), and the
// fused pass must reproduce each serial verdict and the surviving
// outputs byte for byte.
func TestMultiMatchesSerialInvalid(t *testing.T) {
	d := mustDTD(t)
	docs := []string{
		`<bib><book isbn="1"><author>A</author><title>T</title></book></bib>`,
		`<bib><book isbn="1"><title>T</title></book></bib>`,
		`<bib>stray<book isbn="1"><title>T</title><author>A</author></book></bib>`,
		`<bib><book isbn="1">x<title>T</title><author>A</author></book></bib>`,
		`<book isbn="1"><title>T</title><author>A</author></book>`,
		`<bib><book><title>T</title><author>A</author></book></bib>`,
		`<bib><book isbn="1" lang="de"><title>T</title><author>A</author></book></bib>`,
		`<bib><book isbn="1" x="1"><title>T</title><author>A</author></book></bib>`,
		`<bib><book isbn="1"><title>T</title><author>A</author><year>1</year><year>2</year></book></bib>`,
		`<bib><book isbn="1"/></bib>`,
	}
	for _, doc := range docs {
		for _, v := range []bool{false, true} {
			checkMulti(t, "invalid", []byte(doc), d, multiBibPis, v)
		}
	}
}

// TestMultiMatchesSerialMalformed: with Validate, syntax and
// well-formedness errors fail every projector of the fused pass, as
// they fail every serial run. Without it a projector fails on the ones
// in what it keeps, exactly as its serial run does — the last projector
// discards <book> and never sees the unquoted attribute.
func TestMultiMatchesSerialMalformed(t *testing.T) {
	d := mustDTD(t)
	cases := []string{
		``,
		`<bib>`,
		`<bib><book isbn="1"></bib>`,
		`</bib>`,
		`<bib>&bogus;</bib>`,
		`<bib>a & b</bib>`,
		`<bib><book isbn=1/></bib>`,
		`<bib><!-- -- --></bib>`,
		`<notdeclared/>`,
	}
	for _, src := range cases {
		gathers, _, errs := StreamMultiGather([]byte(src), d, multiBibPis, MultiOptions{Validate: true})
		for j := range multiBibPis {
			if errs[j] == nil {
				t.Errorf("multi projector %d accepted malformed input %q", j, src)
			}
			if gathers[j] != nil {
				t.Errorf("multi projector %d returned a Gather for malformed input %q", j, src)
			}
		}
		checkMulti(t, "malformed", []byte(src), d, multiBibPis, false)
	}
}

// TestMultiMatchesSerialRandom draws random projector subsets over the
// XMark grammar and a corpus document, comparing the fused pass against
// each serial gather — the satellite's randomized differential.
func TestMultiMatchesSerialRandom(t *testing.T) {
	d := xmark.DTD()
	doc := []byte(xmark.NewGenerator(0.002, 23).Document().XML())
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(7)
		pis := make([]dtd.NameSet, n)
		for j := range pis {
			pis[j] = randomProjector(d, rng, 3+rng.Intn(40))
		}
		checkMulti(t, "random", doc, d, pis, false)
		checkMulti(t, "random", doc, d, pis, true)
	}
}

// TestMultiShardsBeyondFuseLimit: more than 64 projectors shard into
// consecutive fused passes, each still matching its serial gather.
func TestMultiShardsBeyondFuseLimit(t *testing.T) {
	d := mustDTD(t)
	doc := []byte(bibDoc)
	rng := rand.New(rand.NewSource(7))
	pis := make([]dtd.NameSet, dtd.MaxMultiProjections+6)
	for j := range pis {
		pis[j] = randomProjector(d, rng, 1+rng.Intn(8))
	}
	checkMulti(t, "sharded", doc, d, pis, false)
	checkMulti(t, "sharded", doc, d, pis, true)
}

// TestMultiPrecompiled: precompiled projections and a pre-fused
// decision table must give the same results as on-the-spot compiles.
func TestMultiPrecompiled(t *testing.T) {
	d := mustDTD(t)
	doc := []byte(bibDoc)
	projs := make([]*dtd.Projection, len(multiBibPis))
	for j, pi := range multiBibPis {
		projs[j] = d.CompileProjection(pi)
	}
	mp, err := dtd.CombineProjections(projs)
	if err != nil {
		t.Fatal(err)
	}
	base, _, berrs := StreamMultiGather(doc, d, multiBibPis, MultiOptions{})
	pre, _, perrs := StreamMultiGather(doc, d, multiBibPis, MultiOptions{Projections: projs, Combined: mp})
	for j := range multiBibPis {
		if (berrs[j] == nil) != (perrs[j] == nil) {
			t.Fatalf("projector %d: verdicts diverge with precompiled inputs: %v vs %v", j, berrs[j], perrs[j])
		}
		if berrs[j] != nil {
			continue
		}
		if !bytes.Equal(base[j].Bytes(), pre[j].Bytes()) {
			t.Fatalf("projector %d: output diverges with precompiled inputs", j)
		}
		base[j].Close()
		pre[j].Close()
	}
}

// TestMultiEmptySet: a zero-projector call is a no-op, not a panic.
func TestMultiEmptySet(t *testing.T) {
	d := mustDTD(t)
	gathers, stats, errs := StreamMultiGather([]byte(bibDoc), d, nil, MultiOptions{})
	if len(gathers) != 0 || len(stats) != 0 || len(errs) != 0 {
		t.Fatalf("empty projector set: got %d/%d/%d results", len(gathers), len(stats), len(errs))
	}
}
