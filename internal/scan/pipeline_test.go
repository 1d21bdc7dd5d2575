package scan

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"xmlproj/internal/dtd"
)

// stutterReader returns short reads and interleaves (0, nil) results.
type stutterReader struct {
	r io.Reader
	n int
}

func (s *stutterReader) Read(p []byte) (int, error) {
	s.n++
	if s.n%3 == 0 {
		return 0, nil
	}
	if len(p) > 7 {
		p = p[:7]
	}
	return s.r.Read(p)
}

func prunePipelinedStr(t *testing.T, src io.Reader, d *dtd.DTD, p *dtd.Projection, popts PipelineOptions) (string, Stats, PipelineDetail, error) {
	t.Helper()
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	st, det, err := PrunePipelined(bw, src, d, p, popts)
	if err == nil {
		err = bw.Flush()
	}
	return sb.String(), st, det, err
}

// TestPipelinedMatchesSerial is the core differential: across
// projectors, documents, worker counts, fragment targets, window sizes
// and ring depths — with windows far smaller than the document, so
// every construct kind gets cut by a window boundary — the pipelined
// pruner's output, stats and verdict must be identical to the serial
// scanner's.
func TestPipelinedMatchesSerial(t *testing.T) {
	docs := map[string]string{
		"site":  genSite(4, 3),
		"small": `<site><regions><item id="1"><name>n</name></item></regions></site>`,
		"mixed": `<site><regions>` +
			`<item id="1"><name>a&lt;b</name><note>x</note><note>y</note></item>` +
			"<item id='2' featured=\"yes\"><name>n2</name>\n  <note>t</note></item>" +
			`<item id="3"><name><![CDATA[cd]]>tail</name></item>` +
			`</regions><people><person id="p"><name>who</name></person></people></site>`,
		"comments": `<site><regions><item id="1"><name>a<!-- c -->b</name>` +
			`<note>t1</note><?pi data?><note>t2</note></item></regions></site>`,
		"crlf": "<site>\r\n  <regions>\r\n    <item id=\"1\">\r\n      <name>a\r\nb</name>\r\n    </item>\r\n  </regions>\r\n</site>",
	}
	for pname, pi := range siteProjectors {
		d, p := setupSite(t, pi)
		for dname, doc := range docs {
			for _, validate := range []bool{false, true} {
				opts := Options{Validate: validate}
				var sb strings.Builder
				bw := bufio.NewWriter(&sb)
				sst, serr := Prune(Source{R: strings.NewReader(doc)}, Sink{W: bw}, d, p, opts)
				bw.Flush()
				want := sb.String()
				for _, workers := range []int{1, 2, 4} {
					for _, target := range []int{1, 40, 1 << 20} {
						for _, win := range []int{256, 300, 1 << 10, 1 << 20} {
							for _, ring := range []int{2, 4} {
								got, pst, det, perr := prunePipelinedStr(t, strings.NewReader(doc), d, p, PipelineOptions{
									Options:    opts,
									Workers:    workers,
									WindowSize: win,
									RingDepth:  ring,
									FragTarget: target,
								})
								id := fmt.Sprintf("%s/%s validate=%v w=%d target=%d win=%d ring=%d (windows=%d tasks=%d)",
									pname, dname, validate, workers, target, win, ring, det.Windows, det.Tasks)
								if (serr == nil) != (perr == nil) {
									t.Fatalf("%s: verdict diverges: serial=%v pipelined=%v", id, serr, perr)
								}
								if serr != nil {
									continue
								}
								if got != want {
									t.Fatalf("%s: output diverges\nserial:    %q\npipelined: %q", id, want, got)
								}
								if pst != sst {
									t.Fatalf("%s: stats diverge\nserial:    %+v\npipelined: %+v", id, sst, pst)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestPipelinedTortureReaders: one-byte reads, short reads and (0, nil)
// stutters must not change output, stats or verdict.
func TestPipelinedTortureReaders(t *testing.T) {
	doc := genSite(2, 2)
	for pname, pi := range siteProjectors {
		d, p := setupSite(t, pi)
		opts := Options{Validate: true}
		var sb strings.Builder
		bw := bufio.NewWriter(&sb)
		sst, serr := Prune(Source{R: strings.NewReader(doc)}, Sink{W: bw}, d, p, opts)
		bw.Flush()
		want := sb.String()
		readers := map[string]func() io.Reader{
			"onebyte": func() io.Reader { return iotest(strings.NewReader(doc)) },
			"stutter": func() io.Reader { return &stutterReader{r: strings.NewReader(doc)} },
			"iotest1": func() io.Reader { return io.LimitReader(strings.NewReader(doc), int64(len(doc))) },
		}
		for rname, mk := range readers {
			got, pst, _, perr := prunePipelinedStr(t, mk(), d, p, PipelineOptions{
				Options: opts, Workers: 4, WindowSize: 300, RingDepth: 3, FragTarget: 16,
			})
			if (serr == nil) != (perr == nil) {
				t.Fatalf("%s/%s: verdict diverges: serial=%v pipelined=%v", pname, rname, serr, perr)
			}
			if serr != nil {
				continue
			}
			if got != want {
				t.Fatalf("%s/%s: output diverges", pname, rname)
			}
			if pst != sst {
				t.Fatalf("%s/%s: stats diverge\nserial:    %+v\npipelined: %+v", pname, rname, sst, pst)
			}
		}
	}
}

// TestPipelinedVerdictParityOnBadDocs: malformed and invalid documents
// must be accepted or rejected exactly as the serial scanner decides,
// whatever the windowing.
func TestPipelinedVerdictParityOnBadDocs(t *testing.T) {
	docs := []string{
		``,
		`no xml here`,
		`<site><regions></regions>`,
		`<site><regions></regions></site><site></site>`,
		`<site><regions><item id="1"></wrong></item></regions></site>`,
		`<site><regions><item id="1"><name>n</name></item></regions></site>trailing`,
		`<site><regions><item id="1"><name>n</name></item></regions>text</site>`,
		`<region><item id="1"/></region>`,
		`<site><regions><item><name>n</name></item></regions></site>`,
		`<site><regions><item id="1" featured="maybe"><name>n</name></item></regions></site>`,
		`<site><regions><item id="1" bogus="x"><name>n</name></item></regions></site>`,
		`<site><regions><item id="1"><note>n</note></item></regions></site>`,
		`<site><regions><item id="1"><name>n</name>stray</item></regions></site>`,
		`<site><regions><item id="1"><name>a &unknown; b</name></item></regions></site>`,
		`<site><regions><item id="1"><name attr="<">n</name></item></regions></site>`,
		`<site><regions><item id="1"><name>n</name><undeclared/></item></regions></site>`,
		`</site>`,
		`<site><regions><item id="1"><name>n</name></item></regions></site></extra>`,
	}
	for pname, pi := range siteProjectors {
		d, p := setupSite(t, pi)
		for _, validate := range []bool{false, true} {
			opts := Options{Validate: validate}
			for i, doc := range docs {
				var sb strings.Builder
				bw := bufio.NewWriter(&sb)
				_, serr := Prune(Source{R: strings.NewReader(doc)}, Sink{W: bw}, d, p, opts)
				for _, win := range []int{256, 1 << 20} {
					_, _, _, perr := prunePipelinedStr(t, strings.NewReader(doc), d, p, PipelineOptions{
						Options: opts, Workers: 4, WindowSize: win, FragTarget: 24,
					})
					if (serr == nil) != (perr == nil) {
						t.Errorf("%s validate=%v doc %d win=%d: serial=%v pipelined=%v",
							pname, validate, i, win, serr, perr)
					}
				}
			}
		}
	}
}

// TestPipelinedMaxTokenSize: a token larger than the cap fails with
// ErrTokenTooLong even though it spans many windows (the carry can
// never complete); a cap too small for the parallel invariants falls
// back to the serial pruner wholesale.
func TestPipelinedMaxTokenSize(t *testing.T) {
	d, p := setupSite(t, siteProjectors["all"])
	big := strings.Repeat("x", 3*defaultBufSize/2)
	doc := `<site><regions><item id="1"><name>` + big + `</name></item></regions></site>`
	cap := defaultBufSize
	_, _, det, err := prunePipelinedStr(t, strings.NewReader(doc), d, p, PipelineOptions{
		Options: Options{MaxTokenSize: cap}, Workers: 2, WindowSize: 16 << 10,
	})
	if !errors.Is(err, ErrTokenTooLong) {
		t.Fatalf("got %v, want ErrTokenTooLong", err)
	}
	if det.Fallback {
		t.Fatal("oversized token should fail in the indexer, not fall back")
	}
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	_, serr := Prune(Source{R: strings.NewReader(doc)}, Sink{W: bw}, d, p, Options{MaxTokenSize: cap})
	if !errors.Is(serr, ErrTokenTooLong) {
		t.Fatalf("serial scanner disagrees: %v", serr)
	}
	_, _, det, err = prunePipelinedStr(t, strings.NewReader(doc), d, p, PipelineOptions{
		Options: Options{MaxTokenSize: 1 << 10}, Workers: 2,
	})
	if !det.Fallback {
		t.Fatal("tiny token cap must use the serial pruner")
	}
	if !errors.Is(err, ErrTokenTooLong) {
		t.Fatalf("fallback verdict: %v", err)
	}
}

// TestPipelinedBoundedMemory: peak resident window bytes stay within
// ring × window on a document much larger than the ring.
func TestPipelinedBoundedMemory(t *testing.T) {
	doc := genSite(64, 4) // ~hundreds of KiB
	d, p := setupSite(t, siteProjectors["low"])
	win, ring := 8<<10, 3
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	sst, serr := Prune(Source{R: strings.NewReader(doc)}, Sink{W: bw}, d, p, Options{})
	bw.Flush()
	if serr != nil {
		t.Fatal(serr)
	}
	got, pst, det, err := prunePipelinedStr(t, strings.NewReader(doc), d, p, PipelineOptions{
		Options: Options{}, Workers: 4, WindowSize: win, RingDepth: ring, FragTarget: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != sb.String() || pst != sst {
		t.Fatalf("large-doc divergence: stats %+v vs %+v, len %d vs %d", pst, sst, len(got), sb.Len())
	}
	if det.Windows < int(len(doc)/win) {
		t.Fatalf("expected ~%d windows, got %d", len(doc)/win, det.Windows)
	}
	if det.Tasks == 0 {
		t.Fatal("expected delegated ranges")
	}
	if det.PeakWindowBytes > int64(ring)*int64(win) {
		t.Fatalf("peak window bytes %d exceeds ring bound %d", det.PeakWindowBytes, ring*win)
	}
}

// TestPipelinedDelegatesSkippedSubtrees: a projector that discards the
// dominant subtree must still delegate its interior ranges (as skip
// fragments), pausing and resuming the spine's skip scan across window
// boundaries.
func TestPipelinedDelegatesSkippedSubtrees(t *testing.T) {
	doc := genSite(8, 4)
	d, p := setupSite(t, siteProjectors["skip-heavy"])
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	sst, serr := Prune(Source{R: strings.NewReader(doc)}, Sink{W: bw}, d, p, Options{})
	bw.Flush()
	if serr != nil {
		t.Fatal(serr)
	}
	got, pst, det, err := prunePipelinedStr(t, strings.NewReader(doc), d, p, PipelineOptions{
		Options: Options{}, Workers: 4, WindowSize: 2 << 10, RingDepth: 3, FragTarget: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != sb.String() || pst != sst {
		t.Fatalf("skip-heavy divergence: stats %+v vs %+v", pst, sst)
	}
	if det.Tasks == 0 {
		t.Fatal("expected skip ranges to be delegated")
	}
}
