package scan

import (
	"bufio"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/index"
)

const siteDTD = `
<!ELEMENT site (regions, people?)>
<!ELEMENT regions (item*)>
<!ELEMENT item (name, note*, item*)>
<!ATTLIST item id CDATA #REQUIRED featured (yes|no) "no">
<!ELEMENT name (#PCDATA)>
<!ELEMENT note (#PCDATA)>
<!ELEMENT people (person*)>
<!ELEMENT person (name)>
<!ATTLIST person id CDATA #REQUIRED>
`

func setupSite(t *testing.T, pi dtd.NameSet) (*dtd.DTD, *dtd.Projection) {
	t.Helper()
	d, err := dtd.ParseString(siteDTD, "")
	if err != nil {
		t.Fatal(err)
	}
	return d, d.CompileProjection(pi)
}

// genSite builds a document with one dominant subtree (regions) holding
// nested items, plus a small people section — the shape that forces the
// planner to recurse rather than cut flat at depth 1.
func genSite(items, depth int) string {
	var b strings.Builder
	b.WriteString("<?xml version=\"1.0\"?>\n<!-- corpus -->\n<site><regions>")
	var item func(id, d int)
	item = func(id, d int) {
		fmt.Fprintf(&b, `<item id="i%d"><name>item %d &amp; co</name>`, id, id)
		b.WriteString(`<note>plain note</note><note><![CDATA[raw <note>]]></note>`)
		if d > 0 {
			item(id*10+1, d-1)
			item(id*10+2, d-1)
		}
		b.WriteString(`</item>`)
	}
	for i := 0; i < items; i++ {
		item(i+1, depth)
	}
	b.WriteString(`</regions><people>`)
	for i := 0; i < 5; i++ {
		fmt.Fprintf(&b, `<person id="p%d"><name>person %d</name></person>`, i, i)
	}
	b.WriteString(`</people></site>`)
	return b.String()
}

func pruneParallelStr(t *testing.T, src string, d *dtd.DTD, p *dtd.Projection, popts ParallelOptions) (string, Stats, ParallelDetail, error) {
	t.Helper()
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	st, det, err := PruneParallel(bw, []byte(src), d, p, popts)
	if err == nil {
		err = bw.Flush()
	}
	return sb.String(), st, det, err
}

var siteProjectors = map[string]dtd.NameSet{
	"all": dtd.NewNameSet("site", "regions", "item", "item@id", "item@featured",
		"name", "name#text", "note", "note#text", "people", "person", "person@id"),
	"low": dtd.NewNameSet("site", "regions", "item", "item@id", "name", "name#text"),
	"skip-heavy": dtd.NewNameSet("site", "people", "person", "person@id",
		"name", "name#text"),
	"root-only": dtd.NewNameSet("site"),
}

// TestParallelMatchesSerial is the core differential: for every
// projector, worker count, fragment target and stage-1 chunk size —
// including adversarial one-byte chunks that cut mid-tag, mid-CDATA and
// mid-comment — the parallel pruner's output, stats and verdict must be
// identical to the serial scanner's.
func TestParallelMatchesSerial(t *testing.T) {
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
		"ws": "<site>\n  <regions>\n    <item id=\"1\">\n      <name>n</name>\n    </item>\n  </regions>\n</site>",
	}
	for pname, pi := range siteProjectors {
		d, p := setupSite(t, pi)
		for dname, doc := range docs {
			for _, validate := range []bool{false, true} {
				opts := Options{Validate: validate}
				var sb strings.Builder
				bw := bufio.NewWriter(&sb)
				sst, serr := Prune(bw, strings.NewReader(doc), d, p, opts)
				bw.Flush()
				want := sb.String()
				for _, workers := range []int{1, 2, 4, 8} {
					for _, target := range []int{1, 40, 1 << 20} {
						for _, chunk := range []int{1, 17, 64 << 10} {
							got, pst, det, perr := pruneParallelStr(t, doc, d, p, ParallelOptions{
								Options:    opts,
								Workers:    workers,
								ChunkSize:  chunk,
								FragTarget: target,
							})
							id := fmt.Sprintf("%s/%s validate=%v w=%d target=%d chunk=%d (tasks=%d)",
								pname, dname, validate, workers, target, chunk, det.Tasks)
							if (serr == nil) != (perr == nil) {
								t.Fatalf("%s: verdict diverges: serial=%v parallel=%v", id, serr, perr)
							}
							if serr != nil {
								continue
							}
							if got != want {
								t.Fatalf("%s: output diverges\nserial:   %q\nparallel: %q", id, want, got)
							}
							if pst != sst {
								t.Fatalf("%s: stats diverge\nserial:   %+v\nparallel: %+v", id, sst, pst)
							}
						}
					}
				}
			}
		}
	}
}

// TestParallelRecursesDominantSubtree: with a tiny fragment target the
// planner must split the single dominant subtree into many tasks, not
// one per depth-1 child.
func TestParallelRecursesDominantSubtree(t *testing.T) {
	d, p := setupSite(t, siteProjectors["all"])
	doc := genSite(2, 5)
	_, _, det, err := pruneParallelStr(t, doc, d, p, ParallelOptions{
		Options: Options{}, Workers: 4, FragTarget: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if det.Tasks < 8 {
		t.Fatalf("expected recursion into the dominant subtree, got %d tasks", det.Tasks)
	}
	if det.Fallback {
		t.Fatal("unexpected serial fallback")
	}
}

// TestPlanUnchangedByCollapse: the planner cuts the same task list from
// the collapsed index as from one that keeps every tag (Collapse 1, the
// oracle) — on nested dominant subtrees and on the malformed corpus
// (and, in xmark_test.go, on XMark), down to fragment targets of a few
// bytes — and the two builds agree on every index verdict.
func TestPlanUnchangedByCollapse(t *testing.T) {
	for pname, pi := range siteProjectors {
		_, p := setupSite(t, pi)
		checkPlanUnchanged(t, "site "+pname, genSite(3, 6), p)
		for i, doc := range badSiteDocs {
			checkPlanUnchanged(t, fmt.Sprintf("bad %d %s", i, pname), doc, p)
		}
	}
}

func checkPlanUnchanged(t *testing.T, name, doc string, p *dtd.Projection) {
	t.Helper()
	planOf := func(collapse, chunk, target int) ([]fragTask, error) {
		ix, err := index.Build([]byte(doc), index.Options{
			Workers: 4, ChunkSize: chunk, MaxTokenSize: 1 << 20,
			Lookup: p.Syms.Lookup, Collapse: collapse,
		})
		if err != nil {
			return nil, err
		}
		defer ix.Release()
		var tasks []fragTask
		for _, t := range plan(ix, p, target) {
			tasks = append(tasks, *t)
		}
		return tasks, nil
	}
	for _, target := range []int{1, 7, 64, 1000, 40 << 10} {
		want, werr := planOf(1, 0, target)
		for _, chunk := range []int{0, 11, 4 << 10} {
			got, gerr := planOf(2*target, chunk, target)
			if (werr == nil) != (gerr == nil) || errors.Is(werr, index.ErrTokenTooLong) != errors.Is(gerr, index.ErrTokenTooLong) {
				t.Fatalf("%s target %d chunk %d: verdict %v, oracle %v", name, target, chunk, gerr, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s target %d chunk %d: %d tasks, oracle %d\ngot:  %+v\nwant: %+v",
					name, target, chunk, len(got), len(want), got, want)
			}
		}
	}
}

// badSiteDocs are malformed and DTD-invalid documents over siteDTD.
var badSiteDocs = []string{
	``,
	`no xml here`,
	`<site><regions></regions>`, // unterminated root
	`<site><regions></regions></site><site></site>`, // two roots
	`<site><regions><item id="1"></wrong></item></regions></site>`,
	`<site><regions><item id="1"><name>n</name></item></regions></site>trailing`,
	`<site><regions><item id="1"><name>n</name></item></regions>text</site>`,              // text in site content
	`<region><item id="1"/></region>`,                                                     // undeclared root
	`<site><regions><item><name>n</name></item></regions></site>`,                         // missing required attr
	`<site><regions><item id="1" featured="maybe"><name>n</name></item></regions></site>`, // enum
	`<site><regions><item id="1" bogus="x"><name>n</name></item></regions></site>`,        // undeclared attr
	`<site><regions><item id="1"><note>n</note></item></regions></site>`,                  // model violation
	`<site><regions><item id="1"><name>n</name>stray</item></regions></site>`,             // text not allowed
	`<site><regions><item id="1"><name>a &unknown; b</name></item></regions></site>`,      // bad entity
	`<site><regions><item id="1"><name attr="<">n</name></item></regions></site>`,         // '<' in value
	`<site><regions><item id="1"><name>n</name><undeclared/></item></regions></site>`,
}

// TestParallelVerdictParityOnBadDocs: malformed and invalid documents
// must be rejected (or accepted) exactly as the serial scanner decides,
// whatever the fragmentation.
func TestParallelVerdictParityOnBadDocs(t *testing.T) {
	docs := badSiteDocs
	for pname, pi := range siteProjectors {
		d, p := setupSite(t, pi)
		for _, validate := range []bool{false, true} {
			opts := Options{Validate: validate}
			for i, doc := range docs {
				var sb strings.Builder
				bw := bufio.NewWriter(&sb)
				_, serr := Prune(bw, strings.NewReader(doc), d, p, opts)
				for _, target := range []int{1, 1 << 20} {
					_, _, _, perr := pruneParallelStr(t, doc, d, p, ParallelOptions{
						Options: opts, Workers: 4, ChunkSize: 11, FragTarget: target,
					})
					if (serr == nil) != (perr == nil) {
						t.Errorf("%s validate=%v doc %d target=%d: serial=%v parallel=%v",
							pname, validate, i, target, serr, perr)
					}
				}
			}
		}
	}
}

// TestParallelMaxTokenSize: an oversized token fails in stage 1 with
// ErrTokenTooLong — before any fragment tries to buffer it — matching
// the serial scanner's verdict.
func TestParallelMaxTokenSize(t *testing.T) {
	d, p := setupSite(t, siteProjectors["all"])
	big := strings.Repeat("x", 3*defaultBufSize/2)
	doc := `<site><regions><item id="1"><name>` + big + `</name></item></regions></site>`
	cap := defaultBufSize
	opts := ParallelOptions{Options: Options{MaxTokenSize: cap}, Workers: 2}
	_, _, det, err := pruneParallelStr(t, doc, d, p, opts)
	if !errors.Is(err, ErrTokenTooLong) {
		t.Fatalf("got %v, want ErrTokenTooLong", err)
	}
	if det.Fallback {
		t.Fatal("oversized token should fail in stage 1, not fall back")
	}
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	_, serr := Prune(bw, strings.NewReader(doc), d, p, opts.Options)
	if !errors.Is(serr, ErrTokenTooLong) {
		t.Fatalf("serial scanner disagrees: %v", serr)
	}
	// A small-cap prune falls back to the serial scanner wholesale.
	smallOpts := ParallelOptions{Options: Options{MaxTokenSize: 1 << 10}, Workers: 2}
	_, _, det, err = pruneParallelStr(t, doc, d, p, smallOpts)
	if !det.Fallback {
		t.Fatal("tiny token cap must use the serial pruner")
	}
	if !errors.Is(err, ErrTokenTooLong) {
		t.Fatalf("fallback verdict: %v", err)
	}
}

// TestParallelFallbackOnUnindexable: structure stage 1 cannot describe
// (e.g. a directive mid-document is fine, but '<' inside a quoted
// attribute value is not) falls back to the serial scanner and inherits
// its verdict.
func TestParallelFallbackOnUnindexable(t *testing.T) {
	d, p := setupSite(t, siteProjectors["all"])
	doc := `<site><regions><item id="<1>"><name>n</name></item></regions></site>`
	_, _, det, perr := pruneParallelStr(t, doc, d, p, ParallelOptions{Workers: 2})
	if !det.Fallback {
		t.Fatal("expected serial fallback")
	}
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	_, serr := Prune(bw, strings.NewReader(doc), d, p, Options{})
	if (serr == nil) != (perr == nil) {
		t.Fatalf("fallback verdict diverges: serial=%v parallel=%v", serr, perr)
	}
}

// TestResetBytesRestoresOwnBuffer: after a zero-copy prune the pooled
// scanner must not pin the caller's data.
func TestResetBytesRestoresOwnBuffer(t *testing.T) {
	s := NewScanner(nil)
	own := s.buf
	data := []byte(`<a>text</a>`)
	s.ResetBytes(data)
	if &s.buf[0] != &data[0] {
		t.Fatal("ResetBytes did not alias the input")
	}
	if got := s.Peek(2); string(got) != "<a" {
		t.Fatalf("Peek over aliased data: %q", got)
	}
	s.Reset(strings.NewReader("x"))
	if len(s.buf) != len(own) || cap(s.buf) != cap(own) {
		t.Fatal("Reset did not restore the scanner-owned buffer")
	}
}
