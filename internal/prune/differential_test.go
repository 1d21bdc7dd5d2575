package prune

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/gen"
	"xmlproj/internal/scan"
	"xmlproj/internal/xmark"
)

// The byte-level scanner (EngineScanner) is differentially tested
// against the encoding/xml pruner it replaced (oracle_test.go, called
// directly: it is no engine of the build). With Validate, on every
// input where both succeed they must produce byte-identical output and
// identical stats, and any input rejected by one must be rejected by the
// other. Without it the scanner only balances the subtrees π discards
// (scan/skip.go), and the contract is three properties: (i) whatever the
// decoder accepts the scanner accepts, with identical bytes and stats;
// (ii) the level is never the stricter one — what it rejects, the
// decoder and the validating scanner reject; (iii) every engine and
// every fused projector equals the serial scanner in bytes, stats and
// verdict. (iii) is what every engine comparison below asserts at both
// levels; checkOracle asserts the rest.
//
// One documented divergence is excluded: the scanner matches end tags
// by literal prefix, while encoding/xml matches them by resolved
// namespace, so two prefixes bound to the same URI compare differently.
// Inputs containing "xmlns" are therefore only checked loosely.

func mustDTD(t *testing.T) *dtd.DTD {
	t.Helper()
	d, err := dtd.ParseString(bibDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// parallelVariants are the EngineParallel configurations every
// differential corpus additionally runs under: single worker, several
// workers with an adversarial stage-1 chunk size that cuts mid-tag, and
// a tiny fragment target that forces many splice points on even the
// smallest documents.
var parallelVariants = []StreamOptions{
	{Engine: EngineParallel, ParallelWorkers: 1},
	{Engine: EngineParallel, ParallelWorkers: 4, parallelChunkSize: 3},
	{Engine: EngineParallel, ParallelWorkers: 3, parallelFragTarget: 64},
}

// pipelinedVariants are the EnginePipelined configurations every
// differential corpus additionally runs under: windows far smaller than
// the documents (so constructs straddle window boundaries), a minimal
// ring, a tiny fragment target forcing splices, and the defaults.
var pipelinedVariants = []StreamOptions{
	{Engine: EnginePipelined, ParallelWorkers: 1, pipelineWindowSize: 300},
	{Engine: EnginePipelined, ParallelWorkers: 4, pipelineWindowSize: 300, pipelineRingDepth: 2, parallelFragTarget: 24},
	{Engine: EnginePipelined, ParallelWorkers: 3, parallelFragTarget: 64},
}

// checkGather runs the span-gather path under opts and requires the
// same verdict as the streaming scanner, byte-identical rendered
// output (both materialised and flushed through WriteTo) and equal
// stats. This is the differential oracle for the gather emitter.
func checkGather(t *testing.T, label, src string, d *dtd.DTD, pi dtd.NameSet, opts StreamOptions, accepted bool, wantOut string, wantStats Stats) {
	t.Helper()
	g, gst, gerr := StreamGather([]byte(src), d, pi, opts)
	if accepted != (gerr == nil) {
		t.Fatalf("%s: gather disagrees on acceptance: %v\ninput: %q", label, gerr, src)
	}
	if gerr != nil {
		return
	}
	defer g.Close()
	if got := string(g.Bytes()); got != wantOut {
		t.Fatalf("%s: gather output differs\ngather:  %q\nscanner: %q\ninput: %q", label, got, wantOut, src)
	}
	var wb bytes.Buffer
	n, err := g.WriteTo(&wb)
	if err != nil || n != int64(len(wantOut)) || wb.String() != wantOut {
		t.Fatalf("%s: gather WriteTo mismatch (n=%d, err=%v)\n got: %q\nwant: %q", label, n, err, wb.String(), wantOut)
	}
	if gst != wantStats {
		t.Fatalf("%s: gather stats differ\ngather:  %+v\nscanner: %+v\ninput: %q", label, gst, wantStats, src)
	}
	if g.RawBytes() > g.Len() {
		t.Fatalf("%s: RawBytes %d exceeds Len %d", label, g.RawBytes(), g.Len())
	}
}

// checkOracle holds one serial-scanner result to the decoder: verdict,
// bytes and stats with Validate, properties (i) and (ii) without.
func checkOracle(t *testing.T, src string, d *dtd.DTD, pi dtd.NameSet, validate bool, sout string, sst Stats, serr error) {
	t.Helper()
	dout, dst, derr := oracleString(src, d, pi, validate)
	switch {
	case validate && (serr == nil) != (derr == nil):
		t.Fatalf("engines disagree on acceptance (validate=true)\nscanner: %v\ndecoder: %v\ninput: %q", serr, derr, src)
	case serr != nil && derr == nil:
		t.Fatalf("scanner rejects what the decoder accepts (validate=false)\nscanner: %v\ninput: %q", serr, src)
	case serr != nil && !validate:
		if _, verr := Stream(io.Discard, strings.NewReader(src), d, pi, StreamOptions{Validate: true, Engine: EngineScanner}); verr == nil {
			t.Fatalf("scanner without Validate is the stricter level: it rejects (%v) what Validate accepts\ninput: %q", serr, src)
		}
	}
	if serr != nil || derr != nil {
		return
	}
	if sout != dout {
		t.Fatalf("engines disagree on output (validate=%v, π=%s)\nscanner: %q\ndecoder: %q\ninput:   %q",
			validate, pi, sout, dout, src)
	}
	if sst != dst {
		t.Fatalf("engines disagree on stats (validate=%v, π=%s)\nscanner: %+v\ndecoder: %+v\ninput: %q",
			validate, pi, sst, dst, src)
	}
}

// checkSources runs the serial scanner from its other sources —
// resident bytes, and a reader whose refills land inside every
// construct — and requires the result a plain reader gave.
func checkSources(t *testing.T, src string, d *dtd.DTD, pi dtd.NameSet, validate bool, sout string, sst Stats, serr error) {
	t.Helper()
	sopts := StreamOptions{Validate: validate, Engine: EngineScanner}
	var bb, ob strings.Builder
	bst, berr := StreamBytes(&bb, []byte(src), d, pi, sopts)
	ost, oerr := Stream(&ob, oneByteAtATime{strings.NewReader(src)}, d, pi, sopts)
	if (serr == nil) != (berr == nil) || (serr == nil) != (oerr == nil) ||
		serr == nil && (bb.String() != sout || ob.String() != sout || bst != sst || ost != sst) {
		t.Fatalf("scanner sources disagree (validate=%v)\nreader:   %q %+v %v\nbytes:    %q %+v %v\none-byte: %q %+v %v\ninput: %q",
			validate, sout, sst, serr, bb.String(), bst, berr, ob.String(), ost, oerr, src)
	}
}

func runBoth(t *testing.T, src string, d *dtd.DTD, pi dtd.NameSet, validate bool) {
	t.Helper()
	var sb strings.Builder
	sst, serr := Stream(&sb, strings.NewReader(src), d, pi, StreamOptions{Validate: validate, Engine: EngineScanner})
	checkOracle(t, src, d, pi, validate, sb.String(), sst, serr)
	checkGather(t, "serial", src, d, pi,
		StreamOptions{Validate: validate, Engine: EngineScanner}, serr == nil, sb.String(), sst)
	checkSources(t, src, d, pi, validate, sb.String(), sst, serr)
	for _, popts := range parallelVariants {
		popts.Validate = validate
		var pb strings.Builder
		pst, perr := Stream(&pb, strings.NewReader(src), d, pi, popts)
		if (serr == nil) != (perr == nil) {
			t.Fatalf("parallel engine disagrees on acceptance (validate=%v, workers=%d)\nscanner:  %v\nparallel: %v\ninput: %q",
				validate, popts.ParallelWorkers, serr, perr, src)
		}
		checkGather(t, "parallel", src, d, pi, popts, serr == nil, sb.String(), sst)
		if serr != nil {
			continue
		}
		if pb.String() != sb.String() {
			t.Fatalf("parallel engine disagrees on output (validate=%v, workers=%d)\nscanner:  %q\nparallel: %q\ninput: %q",
				validate, popts.ParallelWorkers, sb.String(), pb.String(), src)
		}
		if pst != sst {
			t.Fatalf("parallel engine disagrees on stats (validate=%v, workers=%d)\nscanner:  %+v\nparallel: %+v\ninput: %q",
				validate, popts.ParallelWorkers, sst, pst, src)
		}
	}
	for _, popts := range pipelinedVariants {
		popts.Validate = validate
		var pb strings.Builder
		pst, perr := Stream(&pb, strings.NewReader(src), d, pi, popts)
		if (serr == nil) != (perr == nil) {
			t.Fatalf("pipelined engine disagrees on acceptance (validate=%v, workers=%d)\nscanner:   %v\npipelined: %v\ninput: %q",
				validate, popts.ParallelWorkers, serr, perr, src)
		}
		if serr != nil {
			continue
		}
		if pb.String() != sb.String() {
			t.Fatalf("pipelined engine disagrees on output (validate=%v, workers=%d)\nscanner:   %q\npipelined: %q\ninput: %q",
				validate, popts.ParallelWorkers, sb.String(), pb.String(), src)
		}
		if pst != sst {
			t.Fatalf("pipelined engine disagrees on stats (validate=%v, workers=%d)\nscanner:   %+v\npipelined: %+v\ninput: %q",
				validate, popts.ParallelWorkers, sst, pst, src)
		}
	}
}

var fixedBibDocs []string

func init() {
	fixedBibDocs = []string{
		bibDoc,
		`<bib/>`,
		`<bib></bib>`,
		`<bib><book isbn="1"><title>a&amp;b &lt; &#99;</title><author>x</author></book></bib>`,
		"<bib>\n  <book isbn=\"1\">\n    <title>T</title><author>A</author>\n  </book>\n</bib>",
		`<?xml version="1.0"?><bib><!-- c --><book isbn="1"><title><![CDATA[<raw>&]]></title><author>A</author></book></bib>`,
		`<bib><book isbn="1"><title>t<?pi data?>t2</title><author>A</author></book></bib>`,
		`<bib><book isbn = '1' lang='it'><title   >T</title ><author>A</author></book></bib>`,
		`<bib><book isbn="&quot;1&quot;"><title>&#x48;i</title><author>A</author></book></bib>`,
		"<bib><book isbn=\"1\"><title>line\r\nbreak\rx</title><author>A</author></book></bib>",
		// Non-verbatim text, then comments splitting the run, then a
		// verbatim chunk: the verbatim bytes must not be emitted as a span
		// ahead of the pending decoded text (reordering bug).
		`<bib><book isbn="1"><title>a&lt;b<!--x-->mid<!--y-->c&gt;d</title><author>A</author></book></bib>`,
		`<bib><book isbn="1"><title>plain<!--x-->a&lt;b<!--y-->tail</title><author>A</author></book></bib>`,
		// Escape-heavy mixes: alternating raw and synthesized output makes
		// the gather emitter interleave input spans with escape-buffer
		// spans at every boundary.
		`<bib><book isbn="&#49;"><title>&lt;a&gt;&amp;b</title><author>A&#x41;B</author><year>&#50;</year></book></bib>`,
		`<bib><book isbn="1"><title>r</title><author>a&amp;<![CDATA[&]]>&lt;</author></book><book isbn="2"><title>raw2</title><author>plain</author></book></bib>`,
		// Every construct the structural skip streams past once a refill
		// cuts it short, with its terminator's bytes scattered inside.
		`<bib><book isbn="1"><title>T</title><author>A</author><year>1<!e "a>b" <n <!-- > --> '>' > x><!---->-<![CDATA[]]]]>]<?p ?? >?></year></book></bib>`,
	}
}

func TestScannerMatchesDecoderFixed(t *testing.T) {
	d := mustDTD(t)
	docs := fixedBibDocs
	pis := []dtd.NameSet{
		dtd.NewNameSet("bib", "book", "title", "title#text", "author", "author#text", "year", "year#text", "book@isbn", "book@lang"),
		dtd.NewNameSet("bib", "book", "title", "title#text"),
		dtd.NewNameSet("bib", "book", "book@isbn"),
		dtd.NewNameSet("bib"),
	}
	for _, doc := range docs {
		for _, pi := range pis {
			for _, v := range []bool{false, true} {
				runBoth(t, doc, d, pi, v)
			}
		}
	}
}

func TestScannerMatchesDecoderRandom(t *testing.T) {
	d, err := dtd.ParseString(`
<!ELEMENT s (a*, b?)>
<!ELEMENT a (c, d*)>
<!ATTLIST a id CDATA #REQUIRED kind (x|y) "x">
<!ELEMENT b (#PCDATA | c)*>
<!ELEMENT c (#PCDATA)>
<!ELEMENT d (a?, c?)>
`, "s")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		doc := gen.New(d, int64(trial), gen.Options{MaxDepth: 6}).Document().XML()
		pi := randomProjector(d, rng, 1+rng.Intn(10))
		runBoth(t, doc, d, pi, false)
		runBoth(t, doc, d, pi, true)
	}
}

func TestScannerMatchesDecoderOnXMark(t *testing.T) {
	d := xmark.DTD()
	doc := xmark.NewGenerator(0.002, 23).Document().XML()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		pi := randomProjector(d, rng, 5+rng.Intn(40))
		runBoth(t, doc, d, pi, false)
		runBoth(t, doc, d, pi, true)
	}
}

// insideDiscard holds one document per check that Validate decides
// inside a discarded subtree, each malformed only inside <year>, which
// the projectors below discard. lax says whether a prune without
// Validate accepts it; with Validate every one is rejected.
var insideDiscard = []struct {
	name, year string
	lax        bool
}{
	{"bad name", `<year><9x/></year>`, true},
	{"attribute without =", `<year><y a/></year>`, true},
	{"undefined entity", `<year>&nosuch;</year>`, true},
	{"illegal character", "<year>\x01</year>", true},
	{"invalid UTF-8", "<year>\xff</year>", true},
	{"]]> in text", `<year>]]></year>`, true},
	{"-- in a comment", `<year><!-- a -- b --></year>`, true},
	{"mismatched inner end tag", `<year><a>x</b></year>`, true},
	{"unterminated comment", `<year><!-- x</year>`, false},
	{"EOF inside", `<year><a>`, false},
	{"< in an attribute value", `<year><a x="<"/></year>`, false},
	{"closed by the wrong name", `<year>1</yeer>`, false},
}

func insideDiscardDoc(year string) string {
	if strings.HasSuffix(year, "<a>") { // "EOF inside": the input ends there
		return `<bib><book isbn="1"><title>T</title><author>A</author>` + year
	}
	return `<bib><book isbn="1"><title>T</title><author>A</author>` + year + `</book><book isbn="2"><title>U</title><author>B</author></book></bib>`
}

// TestValidateLevelsInsideDiscard: the twelve documents are accepted or
// rejected as listed, by name, at each level — identically by every
// engine, every source and every fused projector (runBoth, checkMulti).
func TestValidateLevelsInsideDiscard(t *testing.T) {
	d := mustDTD(t)
	// The first two discard <year> itself, the last one <book> around it
	// — there the wrong name closes an inner element, and is not seen.
	pis := []dtd.NameSet{
		dtd.NewNameSet("bib", "book", "title", "title#text", "author", "author#text", "book@isbn"),
		dtd.NewNameSet("bib", "book", "title", "title#text"),
		dtd.NewNameSet("bib"),
	}
	for _, c := range insideDiscard {
		t.Run(c.name, func(t *testing.T) {
			doc := insideDiscardDoc(c.year)
			for _, validate := range []bool{false, true} {
				for _, pi := range pis[:2] {
					_, err := Stream(io.Discard, strings.NewReader(doc), d, pi, StreamOptions{Validate: validate, Engine: EngineScanner})
					if want := c.lax && !validate; (err == nil) != want {
						t.Fatalf("validate=%v π=%s: accepted=%v, want %v (%v)\ninput: %q", validate, pi, err == nil, want, err, doc)
					}
				}
				for _, pi := range pis {
					runBoth(t, doc, d, pi, validate)
				}
				// Fused with a projector that keeps <year>, and so reads it.
				checkMulti(t, c.name, []byte(doc), d, append(pis[:len(pis):len(pis)], multiBibPis[0]), validate)
			}
		})
	}
}

// TestScannerMalformed: the malformed corpus must be rejected by both
// engines.
func TestScannerMalformed(t *testing.T) {
	d := mustDTD(t)
	pi := dtd.NewNameSet("bib", "book", "title", "title#text", "author", "author#text")
	cases := []string{
		``,                              // no root
		`   `,                           // whitespace only
		`<bib>`,                         // unterminated element
		`<bib><book isbn="1"></bib>`,    // mismatched end tag
		`</bib>`,                        // unbalanced end tag
		`<bib>&bogus;</bib>`,            // unknown entity
		`<bib>&amp</bib>`,               // entity without semicolon
		`<bib>a & b</bib>`,              // bare ampersand
		`<bib>]]></bib>`,                // stray CDATA terminator
		`<bib><![CDATA[x</bib>`,         // truncated CDATA
		`<bib><![CDAT[x]]></bib>`,       // bad CDATA introducer
		`<bib><book isbn=1/></bib>`,     // unquoted attribute
		`<bib><book isbn></book></bib>`, // attribute without value
		`<bib><book isbn="1/></bib>`,    // unterminated attribute value
		`<bib><!-- comment --></bib`,    // truncated end tag
		`<bib><!- no --></bib>`,         // bad comment introducer
		`<bib><!-- -- --></bib>`,        // double dash inside comment
		`<bib><book/><9tag/></bib>`,     // invalid name start
		`<?xml version="2.0"?><bib/>`,   // unsupported version
		`<?xml version="1.0" encoding="utf-16"?><bib/>`, // undeclared charset
		"<bib>\x01</bib>",                          // char outside XML range
		"<bib>\xff\xfe</bib>",                      // invalid UTF-8 in content
		`<bib><book isbn="` + "\x02" + `"/></bib>`, // bad char in attr value
		`<notdeclared/>`,                           // undeclared element
	}
	for _, src := range cases {
		for _, eng := range []Engine{EngineScanner, EngineParallel, EnginePipelined} {
			var sb strings.Builder
			_, err := Stream(&sb, strings.NewReader(src), d, pi, StreamOptions{Engine: eng})
			if err == nil {
				t.Errorf("engine %s accepted malformed input %q", eng, src)
			}
		}
		if _, _, err := oracleString(src, d, pi, false); err == nil {
			t.Errorf("the oracle accepted malformed input %q", src)
		}
	}
}

// TestScannerMatchesDecoderInvalid: well-formed documents that violate
// the DTD. Both engines must agree on acceptance with and without
// validation (the skipped parts of a document are only shallowly
// validated, identically on both paths), and under the full-closure π —
// where the whole document is emitted as verbatim spans even while
// validating — the scanner must still reject every one of them.
func TestScannerMatchesDecoderInvalid(t *testing.T) {
	d := mustDTD(t)
	docs := []string{
		// Bad child order: author before title.
		`<bib><book isbn="1"><author>A</author><title>T</title></book></bib>`,
		// Missing required child: no author.
		`<bib><book isbn="1"><title>T</title></book></bib>`,
		// Unexpected text content in element-only models.
		`<bib>stray<book isbn="1"><title>T</title><author>A</author></book></bib>`,
		`<bib><book isbn="1">x<title>T</title><author>A</author></book></bib>`,
		// Wrong root element.
		`<book isbn="1"><title>T</title><author>A</author></book>`,
		// Missing required attribute.
		`<bib><book><title>T</title><author>A</author></book></bib>`,
		// Enumeration violation.
		`<bib><book isbn="1" lang="de"><title>T</title><author>A</author></book></bib>`,
		// Undeclared attribute.
		`<bib><book isbn="1" x="1"><title>T</title><author>A</author></book></bib>`,
		// Repeated optional child: two years.
		`<bib><book isbn="1"><title>T</title><author>A</author><year>1</year><year>2</year></book></bib>`,
		// Empty element with a non-empty content model.
		`<bib><book isbn="1"/></bib>`,
	}
	fullPi := dtd.NewNameSet("bib", "book", "title", "title#text", "author", "author#text",
		"year", "year#text", "book@isbn", "book@lang")
	pis := []dtd.NameSet{
		fullPi,
		dtd.NewNameSet("bib", "book", "title", "title#text"),
		dtd.NewNameSet("bib"),
	}
	for _, doc := range docs {
		for _, pi := range pis {
			runBoth(t, doc, d, pi, false)
			runBoth(t, doc, d, pi, true)
		}
		var sb strings.Builder
		_, err := Stream(&sb, strings.NewReader(doc), d, fullPi,
			StreamOptions{Validate: true, Engine: EngineScanner})
		if err == nil {
			t.Errorf("validated scanner accepted invalid document %q", doc)
		}
	}
}

// TestStreamMaxTokenSize: a single oversized token fails with
// scan.ErrTokenTooLong under an explicit cap, and passes under the
// default one.
func TestStreamMaxTokenSize(t *testing.T) {
	d := mustDTD(t)
	pi := dtd.NewNameSet("bib", "book", "title", "title#text", "author", "author#text", "book@isbn")
	big := `<bib><book isbn="1"><title>` + strings.Repeat("x", 100<<10) +
		`</title><author>A</author></book></bib>`
	var sb strings.Builder
	_, err := Stream(&sb, strings.NewReader(big), d, pi,
		StreamOptions{Engine: EngineScanner, MaxTokenSize: 64 << 10})
	if !errors.Is(err, scan.ErrTokenTooLong) {
		t.Fatalf("capped prune: want ErrTokenTooLong, got %v", err)
	}
	sb.Reset()
	if _, err := Stream(&sb, strings.NewReader(big), d, pi, StreamOptions{Engine: EngineScanner}); err != nil {
		t.Fatalf("default cap rejected a 100KiB token: %v", err)
	}
	if !strings.Contains(sb.String(), strings.Repeat("x", 100<<10)) {
		t.Fatal("oversized token mangled in output")
	}
}

// TestParallelEngineAdversarialChunks sweeps worker counts against
// stage-1 chunk sizes down to a single byte — every cut lands mid-tag,
// mid-CDATA or mid-comment somewhere in the corpus — and requires the
// parallel engine to match the serial scanner byte for byte.
func TestParallelEngineAdversarialChunks(t *testing.T) {
	d := mustDTD(t)
	pi := dtd.NewNameSet("bib", "book", "title", "title#text", "author", "author#text", "book@isbn")
	for _, doc := range fixedBibDocs {
		var sb strings.Builder
		sst, serr := Stream(&sb, strings.NewReader(doc), d, pi, StreamOptions{Engine: EngineScanner})
		for _, workers := range []int{1, 2, 4, 8} {
			for _, chunk := range []int{1, 2, 5} {
				var pb strings.Builder
				pst, perr := Stream(&pb, strings.NewReader(doc), d, pi, StreamOptions{
					Engine:             EngineParallel,
					ParallelWorkers:    workers,
					parallelChunkSize:  chunk,
					parallelFragTarget: 1,
				})
				if (serr == nil) != (perr == nil) {
					t.Fatalf("w=%d chunk=%d: verdicts diverge: scanner=%v parallel=%v\ninput: %q",
						workers, chunk, serr, perr, doc)
				}
				if serr != nil {
					continue
				}
				if pb.String() != sb.String() {
					t.Fatalf("w=%d chunk=%d: output diverges\nscanner:  %q\nparallel: %q\ninput: %q",
						workers, chunk, sb.String(), pb.String(), doc)
				}
				if pst != sst {
					t.Fatalf("w=%d chunk=%d: stats diverge\nscanner:  %+v\nparallel: %+v",
						workers, chunk, sst, pst)
				}
			}
		}
	}
}

// TestParallelEngineMaxTokenSize: the oversized token is caught by the
// stage-1 index bound — before any fragment worker would buffer it —
// not by a fallback to the serial scanner.
func TestParallelEngineMaxTokenSize(t *testing.T) {
	d := mustDTD(t)
	pi := dtd.NewNameSet("bib", "book", "title", "title#text", "author", "author#text", "book@isbn")
	big := `<bib><book isbn="1"><title>` + strings.Repeat("x", 512<<10) +
		`</title><author>A</author></book></bib>`
	var det ParallelDetail
	var sb strings.Builder
	_, err := Stream(&sb, strings.NewReader(big), d, pi, StreamOptions{
		Engine: EngineParallel, MaxTokenSize: 256 << 10, Detail: &det,
	})
	if !errors.Is(err, scan.ErrTokenTooLong) {
		t.Fatalf("capped parallel prune: want ErrTokenTooLong, got %v", err)
	}
	if det.Fallback {
		t.Fatal("oversized token should fail in the index stage, not via serial fallback")
	}
	sb.Reset()
	if _, err := Stream(&sb, strings.NewReader(big), d, pi, StreamOptions{Engine: EngineParallel, Detail: &det}); err != nil {
		t.Fatalf("default cap rejected a 512KiB token: %v", err)
	}
	if !strings.Contains(sb.String(), strings.Repeat("x", 512<<10)) {
		t.Fatal("oversized token mangled in parallel output")
	}
}

// shortStutterReader returns short reads and interleaves (0, nil)
// results, hiding the input's size; io.Reader permits both.
type shortStutterReader struct {
	r io.Reader
	n int
}

func (s *shortStutterReader) Read(p []byte) (int, error) {
	s.n++
	if s.n%3 == 0 {
		return 0, nil
	}
	if len(p) > 7 {
		p = p[:7]
	}
	return s.r.Read(p)
}

// oneByteAtATime yields a single byte per Read.
type oneByteAtATime struct{ r io.Reader }

func (o oneByteAtATime) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

// TestStreamTortureReaders: adversarial readers — one byte per read,
// short reads with (0, nil) stutters, no size information — must not
// change any engine's output, stats or verdict. The pipelined engine
// runs with windows small enough that every read boundary lands inside
// some construct.
func TestStreamTortureReaders(t *testing.T) {
	d := mustDTD(t)
	pi := dtd.NewNameSet("bib", "book", "title", "title#text", "author", "author#text", "book@isbn")
	for _, doc := range fixedBibDocs {
		for _, validate := range []bool{false, true} {
			var sb strings.Builder
			sst, serr := Stream(&sb, strings.NewReader(doc), d, pi, StreamOptions{Validate: validate, Engine: EngineScanner})
			engines := []StreamOptions{
				{Engine: EngineScanner},
				{Engine: EnginePipelined, ParallelWorkers: 2, pipelineWindowSize: 300, pipelineRingDepth: 2, parallelFragTarget: 16},
			}
			readers := map[string]func() io.Reader{
				"onebyte": func() io.Reader { return oneByteAtATime{strings.NewReader(doc)} },
				"stutter": func() io.Reader { return &shortStutterReader{r: strings.NewReader(doc)} },
			}
			for _, opts := range engines {
				opts.Validate = validate
				for rname, mk := range readers {
					var tb strings.Builder
					tst, terr := Stream(&tb, mk(), d, pi, opts)
					if (serr == nil) != (terr == nil) {
						t.Fatalf("engine %d under %s reader disagrees on acceptance (validate=%v)\nplain:   %v\ntorture: %v\ninput: %q",
							opts.Engine, rname, validate, serr, terr, doc)
					}
					if serr != nil {
						continue
					}
					if tb.String() != sb.String() {
						t.Fatalf("engine %d under %s reader diverges (validate=%v)\nplain:   %q\ntorture: %q",
							opts.Engine, rname, validate, sb.String(), tb.String())
					}
					if tst != sst {
						t.Fatalf("engine %d under %s reader stats diverge (validate=%v)\nplain:   %+v\ntorture: %+v",
							opts.Engine, rname, validate, sst, tst)
					}
				}
			}
		}
	}
}

// TestKeptSubtreeTokenEdges: tokens inside a subtree π keeps whole that
// are not their own canonical rendering — each through the copying sink
// fed by a reader (one-byte reads, so every token straddles a refill),
// the copying sink over in-memory input, and the gather sink, all
// byte-compared with the decoder.
func TestKeptSubtreeTokenEdges(t *testing.T) {
	d := mustDTD(t)
	pi := dtd.NewNameSet("bib", "book", "title", "title#text", "author", "author#text",
		"year", "year#text", "book@isbn", "book@lang")
	docs := map[string]string{
		// The start tag's '>' is withheld; a comment later, the element
		// turns out to self-close in the output.
		"self-close after provisional >":   `<bib><book isbn="1"><title><!--x--></title><author>A</author></book></bib>`,
		"whitespace between kept siblings": "<bib><book isbn=\"1\"><title>T</title>\n  <author>A</author></book></bib>",
		"prefixed end tag":                 `<bib><book isbn="1"><p:title>T</p:title><author>A</author></book></bib>`,
		"space in end tag":                 `<bib><book isbn="1"><title>T</title ><author>A</author ></book></bib >`,
	}
	for name, doc := range docs {
		for _, validate := range []bool{false, true} {
			want, wst, err := oracleString(doc, d, pi, validate)
			if err != nil {
				t.Fatalf("%s: decoder rejected the input: %v", name, err)
			}
			opts := StreamOptions{Validate: validate, Engine: EngineScanner}
			var rd, by strings.Builder
			rst, rerr := Stream(&rd, oneByteAtATime{strings.NewReader(doc)}, d, pi, opts)
			bst, berr := StreamBytes(&by, []byte(doc), d, pi, opts)
			if rerr != nil || berr != nil || rd.String() != want || by.String() != want || rst != wst || bst != wst {
				t.Errorf("%s (validate=%v): copying sink diverges from the decoder\nreader: %q %v\nbytes:  %q %v\nwant:   %q",
					name, validate, rd.String(), rerr, by.String(), berr, want)
			}
			checkGather(t, name, doc, d, pi, opts, true, want, wst)
		}
	}
}

// TestNonUTF8Rejected: UTF-16/32 input fails on every entry point with
// scan.ErrNotUTF8, naming the encoding family — not with whatever syntax
// error the first null-padded byte happens to trip.
func TestNonUTF8Rejected(t *testing.T) {
	d := mustDTD(t)
	pi := dtd.NewNameSet("bib")
	encode := func(bom []byte, width int, bigEndian bool) []byte {
		out := append([]byte(nil), bom...)
		for _, r := range "<bib/>" {
			unit := make([]byte, width)
			if bigEndian {
				unit[width-1] = byte(r)
			} else {
				unit[0] = byte(r)
			}
			out = append(out, unit...)
		}
		return out
	}
	docs := []struct {
		name, family string
		data         []byte
	}{
		{"UTF-16LE", "UTF-16", encode([]byte{0xFF, 0xFE}, 2, false)},
		{"UTF-16BE without BOM", "UTF-16", encode(nil, 2, true)},
		{"UTF-32BE", "UTF-32", encode([]byte{0, 0, 0xFE, 0xFF}, 4, true)},
	}
	for _, doc := range docs {
		opts := StreamOptions{}
		_, serr := Stream(io.Discard, oneByteAtATime{bytes.NewReader(doc.data)}, d, pi, opts)
		_, berr := StreamBytes(io.Discard, doc.data, d, pi, opts)
		_, _, gerr := StreamGather(doc.data, d, pi, opts)
		_, _, merrs := StreamMultiGather(doc.data, d, []dtd.NameSet{pi, pi}, MultiOptions{})
		for entry, err := range map[string]error{"Stream": serr, "StreamBytes": berr, "StreamGather": gerr, "StreamMultiGather": merrs[1]} {
			if !errors.Is(err, scan.ErrNotUTF8) || !strings.Contains(err.Error(), doc.family) ||
				!strings.Contains(err.Error(), "transcode to UTF-8") {
				t.Errorf("%s on %s: got %v, want ErrNotUTF8 naming %s", entry, doc.name, err, doc.family)
			}
		}
	}
}

func FuzzStreamDifferential(f *testing.F) {
	d, err := dtd.ParseString(bibDTD, "")
	if err != nil {
		f.Fatal(err)
	}
	pi := dtd.NewNameSet("bib", "book", "title", "title#text", "author", "author#text", "book@isbn")
	f.Add(bibDoc, uint16(0))
	f.Add(`<bib><book isbn="1"><title>T</title><author>A</author></book></bib>`, uint16(7))
	f.Add(`<?xml version="1.0"?><bib><!--c--><book isbn="&lt;"><title><![CDATA[x]]></title></book></bib>`, uint16(3))
	f.Add(`<bib>&#65;&amp;</bib>`, uint16(1))
	f.Add(`<bib><book isbn="1"></bib>`, uint16(2))
	f.Add(`<bib>&amp</bib>`, uint16(5))
	f.Add(`<bib>]]></bib>`, uint16(4))
	f.Add(`<bib><![CDATA[x</bib>`, uint16(6))
	f.Add(`<bib xmlns:p="u"><p:book isbn="1"/></bib>`, uint16(0))
	f.Add(`<bib><book isbn="1"><title>a&lt;b<!--x-->mid<!--y-->c&gt;d</title></book></bib>`, uint16(9))
	// Well-formed but DTD-invalid: the validated run must reject these on
	// both engines (and the unvalidated run must still match byte for byte).
	f.Add(`<bib><book isbn="1"><author>A</author><title>T</title></book></bib>`, uint16(0))
	f.Add(`<bib><book isbn="1"><title>T</title></book></bib>`, uint16(11))
	f.Add(`<bib>stray<book isbn="1"><title>T</title><author>A</author></book></bib>`, uint16(1))
	f.Add(`<bib><book><title>T</title><author>A</author></book></bib>`, uint16(0))
	f.Add(`<bib><book isbn="1" lang="de"><title>T</title><author>A</author></book></bib>`, uint16(8))
	f.Add(`<bib><book isbn="1"/></bib>`, uint16(2))
	// Chunk sizes chosen so a stage-1 cut straddles a tag, a CDATA
	// terminator, a comment close and an entity reference.
	f.Add(`<bib><book isbn="1"><title><![CDATA[a]]b]]></title><author>A</author></book></bib>`, uint16(13))
	f.Add(`<bib><!-- straddle --><book isbn="1"><title>t</title><author>&#x41;</author></book></bib>`, uint16(10))
	f.Add(`<bib><book isbn='s'><title>a</title><author>b</author></book><book isbn="t"><title>c</title><author>d</author></book></bib>`, uint16(17))
	// Escape-heavy seeds for the span-gather emitter: output alternates
	// between raw input spans and synthesized escape-buffer bytes.
	f.Add(`<bib><book isbn="&#49;"><title>&lt;t&gt;</title><author>A&amp;B</author></book></bib>`, uint16(5))
	f.Add(`<bib><book isbn="1"><title>raw</title><author><![CDATA[&]]>&#x42;</author></book></bib>`, uint16(12))
	// Chunks that leave the tokeniser's one-loop path part of the way
	// through, in kept text, in a kept attribute and in a discarded
	// subtree (π drops <year>); end tags accepted by comparison and not.
	for i, text := range []string{
		`plain&amp;plain`, `plain]]>`, `plain]]`, "a\rb", `a>b`,
		"0123456é", "01234567é", "012345678é", "0123456\xc3",
		`plain<!--c-->plain`, `plain<!--c-->pl&#97;in`, `plain<![CDATA[<]]>`,
	} {
		f.Add(`<bib><book isbn="`+text+`"><title>`+text+`</title><author>A</author ><year>`+text+`</year ></book></bib>`, uint16(i))
	}
	f.Add(`<bib><book isbn="1"><title>T</title><author>A</author></book></bi>`, uint16(3))
	f.Add(`<bib><book isbn="1"><title>T</titles><author>A</author></book></bib>`, uint16(3))
	f.Add(`<bib><book isbn="1"><title>T</title><author>A</author><year>1</yea></book></bib>`, uint16(3))
	// One document per check that Validate decides inside a discarded
	// subtree (π drops <year>), and one per check that stays.
	for i, c := range insideDiscard {
		f.Add(insideDiscardDoc(c.year), uint16(i))
	}
	f.Add(fixedBibDocs[len(fixedBibDocs)-1], uint16(7))
	f.Fuzz(func(t *testing.T, src string, chunk uint16) {
		// End tags are matched by resolved namespace in encoding/xml but
		// by literal prefix in the scanner; inputs that bind prefixes are
		// outside the differential contract.
		if strings.Contains(src, "xmlns") {
			t.Skip()
		}
		// Without Validate: properties (i) and (ii) against the decoder.
		var sb strings.Builder
		sst, serr := Stream(&sb, strings.NewReader(src), d, pi, StreamOptions{Engine: EngineScanner})
		checkOracle(t, src, d, pi, false, sb.String(), sst, serr)
		checkSources(t, src, d, pi, false, sb.String(), sst, serr)
		// The shared-scan multi-pruner must agree per projector with
		// serial gathers on whatever the fuzzer found — verdicts, bytes
		// and stats, with and without validation (without, a projector
		// must not inherit an error from a region only another one reads).
		mpis := []dtd.NameSet{
			pi,
			dtd.NewNameSet("bib", "book", "title", "title#text"),
			dtd.NewNameSet("bib", "book", "book@isbn"),
		}
		for _, validate := range []bool{false, true} {
			sopts := StreamOptions{Validate: validate, Engine: EngineScanner}
			gathers, mstats, merrs := StreamMultiGather([]byte(src), d, mpis, MultiOptions{Validate: validate})
			for j, mpi := range mpis {
				g, gst, gerr := StreamGather([]byte(src), d, mpi, sopts)
				if (gerr == nil) != (merrs[j] == nil) {
					t.Fatalf("multi verdict diverges from serial (validate=%v, projector %d)\nserial: %v\nmulti:  %v",
						validate, j, gerr, merrs[j])
				}
				if gerr != nil {
					continue
				}
				if got, want := string(gathers[j].Bytes()), string(g.Bytes()); got != want {
					t.Fatalf("multi output diverges (validate=%v, projector %d)\nmulti:  %q\nserial: %q",
						validate, j, got, want)
				}
				if mstats[j] != gst {
					t.Fatalf("multi stats diverge (validate=%v, projector %d)\nmulti:  %+v\nserial: %+v",
						validate, j, mstats[j], gst)
				}
				g.Close()
			}
			for _, g := range gathers {
				if g != nil {
					g.Close()
				}
			}
		}
		// The fuzzed chunk doubles as the pipelined window size (clamped
		// up to the engine's floor internally), so window boundaries land
		// wherever the fuzzer steers them.
		fuzzWin := 256 + int(chunk)
		if serr != nil {
			var pb strings.Builder
			if _, perr := Stream(&pb, strings.NewReader(src), d, pi, StreamOptions{
				Engine: EngineParallel, ParallelWorkers: 4, parallelChunkSize: int(chunk), parallelFragTarget: 1,
			}); perr == nil {
				t.Fatalf("parallel engine accepted input the scanner rejects (chunk=%d): %q", chunk, src)
			}
			var plb strings.Builder
			if _, perr := Stream(&plb, strings.NewReader(src), d, pi, StreamOptions{
				Engine: EnginePipelined, ParallelWorkers: 4, pipelineWindowSize: fuzzWin, pipelineRingDepth: 2, parallelFragTarget: 1,
			}); perr == nil {
				t.Fatalf("pipelined engine accepted input the scanner rejects (win=%d): %q", fuzzWin, src)
			}
			if g, _, gerr := StreamGather([]byte(src), d, pi, StreamOptions{Engine: EngineScanner}); gerr == nil {
				g.Close()
				t.Fatalf("gather path accepted input the scanner rejects: %q", src)
			}
			return
		}
		// With Validate the two agree outright — verbatim spans are still
		// emitted under validation, so this exercises the fused fast path
		// too.
		var sv strings.Builder
		svst, sverr := Stream(&sv, strings.NewReader(src), d, pi, StreamOptions{Validate: true, Engine: EngineScanner})
		checkOracle(t, src, d, pi, true, sv.String(), svst, sverr)
		checkSources(t, src, d, pi, true, sv.String(), svst, sverr)
		// The parallel engine, under the fuzzed stage-1 chunk size and a
		// fragment target that forces splices, must match the scanner's
		// verdict, bytes and stats — validated and not. The span-gather
		// emitter must match on the same grid, serial and parallel.
		for _, validate := range []bool{false, true} {
			wantErr, wantOut, wantStats := serr, sb.String(), sst
			if validate {
				wantErr, wantOut, wantStats = sverr, sv.String(), svst
			}
			popts := StreamOptions{
				Validate:           validate,
				Engine:             EngineParallel,
				ParallelWorkers:    4,
				parallelChunkSize:  int(chunk),
				parallelFragTarget: 1,
			}
			var pb strings.Builder
			pst, perr := Stream(&pb, strings.NewReader(src), d, pi, popts)
			if (wantErr == nil) != (perr == nil) {
				t.Fatalf("parallel engine disagrees on acceptance (validate=%v, chunk=%d)\nscanner:  %v\nparallel: %v",
					validate, chunk, wantErr, perr)
			}
			checkGather(t, "serial", src, d, pi,
				StreamOptions{Validate: validate, Engine: EngineScanner}, wantErr == nil, wantOut, wantStats)
			checkGather(t, "parallel", src, d, pi, popts, wantErr == nil, wantOut, wantStats)
			var plb strings.Builder
			plst, plerr := Stream(&plb, strings.NewReader(src), d, pi, StreamOptions{
				Validate:           validate,
				Engine:             EnginePipelined,
				ParallelWorkers:    4,
				pipelineWindowSize: fuzzWin,
				pipelineRingDepth:  2,
				parallelFragTarget: 1,
			})
			if (wantErr == nil) != (plerr == nil) {
				t.Fatalf("pipelined engine disagrees on acceptance (validate=%v, win=%d)\nscanner:   %v\npipelined: %v",
					validate, fuzzWin, wantErr, plerr)
			}
			if wantErr != nil {
				continue
			}
			if plb.String() != wantOut {
				t.Fatalf("pipelined engine disagrees on output (validate=%v, win=%d)\nscanner:   %q\npipelined: %q",
					validate, fuzzWin, wantOut, plb.String())
			}
			if plst != wantStats {
				t.Fatalf("pipelined engine disagrees on stats (validate=%v, win=%d)\nscanner:   %+v\npipelined: %+v",
					validate, fuzzWin, wantStats, plst)
			}
			if pb.String() != wantOut {
				t.Fatalf("parallel engine disagrees on output (validate=%v, chunk=%d)\nscanner:  %q\nparallel: %q",
					validate, chunk, wantOut, pb.String())
			}
			if !validate && pst != wantStats {
				t.Fatalf("parallel engine disagrees on stats (chunk=%d)\nscanner:  %+v\nparallel: %+v",
					chunk, wantStats, pst)
			}
		}
	})
}

// TestFixedAttributeValidated: a #FIXED attribute spelled with another
// value is a validity error on every validating route — the serial
// scanner from each source and into each sink, parallel, pipelined, the
// fused multi pass, the oracle — with one message (validate.Document says
// the same and names the element in its path instead);
// without Validate it passes, and the declared value passes both.
func TestFixedAttributeValidated(t *testing.T) {
	d, err := dtd.ParseString(`<!ELEMENT a (b*)><!ELEMENT b (#PCDATA)><!ATTLIST b v CDATA #FIXED "1" w CDATA #IMPLIED>`, "a")
	if err != nil {
		t.Fatal(err)
	}
	pi := dtd.NewNameSet("a", "b", "b#text", "b@v")
	const msg = `attribute "v" on b must have fixed value "1"`
	docs := []struct {
		doc   string
		valid bool
	}{
		{`<a><b v="2">x</b></a>`, false},
		{`<a><b v="1">x</b><b w="3" v="">y</b></a>`, false},
		{`<a><b v="1">x</b><b v='&#49;'>y</b><b>z</b></a>`, true},
	}
	routes := map[string]func(doc string, validate bool) error{
		"oracle": func(doc string, validate bool) error {
			_, _, err := oracleString(doc, d, pi, validate)
			return err
		},
		"multi": func(doc string, validate bool) error {
			gs, _, errs := StreamMultiGather([]byte(doc), d, []dtd.NameSet{pi, dtd.NewNameSet("a")}, MultiOptions{Validate: validate})
			for _, g := range gs {
				if g != nil {
					g.Close()
				}
			}
			// The projector that discards <b> does not validate its attributes.
			if errs[1] != nil {
				t.Errorf("multi: the projector discarding b failed on %q: %v", doc, errs[1])
			}
			return errs[0]
		},
		"gather": func(doc string, validate bool) error {
			g, _, err := StreamGather([]byte(doc), d, pi, StreamOptions{Validate: validate})
			if err == nil {
				g.Close()
			}
			return err
		},
		"bytes": func(doc string, validate bool) error {
			_, err := StreamBytes(io.Discard, []byte(doc), d, pi, StreamOptions{Validate: validate})
			return err
		},
	}
	for name, opts := range map[string]StreamOptions{
		"scanner":   {Engine: EngineScanner},
		"parallel":  {Engine: EngineParallel, ParallelWorkers: 3, parallelFragTarget: 8},
		"pipelined": {Engine: EnginePipelined, ParallelWorkers: 2, pipelineWindowSize: 16, parallelFragTarget: 8},
	} {
		routes[name] = func(doc string, validate bool) error {
			opts.Validate = validate
			_, err := Stream(io.Discard, oneByteAtATime{strings.NewReader(doc)}, d, pi, opts)
			return err
		}
	}
	for _, c := range docs {
		for name, run := range routes {
			if err := run(c.doc, false); err != nil {
				t.Errorf("%s, no Validate: %q rejected: %v", name, c.doc, err)
			}
			err := run(c.doc, true)
			switch {
			case c.valid && err != nil:
				t.Errorf("%s: %q rejected: %v", name, c.doc, err)
			case !c.valid && (err == nil || !strings.Contains(err.Error(), msg)):
				t.Errorf("%s: %q: got %v, want an error saying %q", name, c.doc, err, msg)
			}
		}
	}
}
