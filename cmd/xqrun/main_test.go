package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"xmlproj"
	"xmlproj/internal/bench"
	"xmlproj/internal/xmark"
)

const testDTD = `
<!ELEMENT bib (book*)>
<!ELEMENT book (title, author+)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
`

const testDoc = `<bib><book><title>Commedia</title><author>Dante</author></book><book><title>Decameron</title><author>Boccaccio</author></book></bib>`

func setup(t *testing.T) (dtdPath, docPath string) {
	t.Helper()
	dir := t.TempDir()
	dtdPath = filepath.Join(dir, "bib.dtd")
	docPath = filepath.Join(dir, "bib.xml")
	if err := os.WriteFile(dtdPath, []byte(testDTD), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(docPath, []byte(testDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	return dtdPath, docPath
}

func TestRunXPath(t *testing.T) {
	_, docPath := setup(t)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-q", "//title/text()", "-in", docPath}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); got != "Commedia\nDecameron" {
		t.Fatalf("output = %q", got)
	}
	if !strings.Contains(errBuf.String(), "2 item(s)") {
		t.Fatalf("stats = %q", errBuf.String())
	}
}

func TestRunXQuery(t *testing.T) {
	_, docPath := setup(t)
	var out, errBuf bytes.Buffer
	err := run([]string{"-q", `for $b in /bib/book return <a>{ $b/author/text() }</a>`, "-in", docPath}, &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "<a>Dante</a>") {
		t.Fatalf("output = %q", out.String())
	}
}

func TestRunWithPrune(t *testing.T) {
	dtdPath, docPath := setup(t)
	var plain, prunedOut, errBuf bytes.Buffer
	if err := run([]string{"-q", "//title/text()", "-in", docPath}, &plain, &errBuf); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-q", "//title/text()", "-in", docPath, "-dtd", dtdPath, "-prune"}, &prunedOut, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != prunedOut.String() {
		t.Fatalf("pruned run differs:\n%q\n%q", plain.String(), prunedOut.String())
	}
	if !strings.Contains(errBuf.String(), "pruned") {
		t.Fatalf("prune stats missing: %q", errBuf.String())
	}
}

// TestRunReportsPhases: the schema parse and the paper's phases each get
// a line on stderr, in order — with -prune the prune and the load are one
// pass and one line — and the two the benchmark reads keep their wording.
func TestRunReportsPhases(t *testing.T) {
	dtdPath, docPath := setup(t)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-q", "//title", "-in", docPath, "-dtd", dtdPath, "-prune", "-quiet"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	stats := errBuf.String()
	at := 0
	for _, phase := range []string{"parsed the schema in ", "inferred the projector in ", "pruned 132 -> 84 bytes and loaded them in ", "evaluated to 2 item(s), 48 bytes serialised, in "} {
		i := strings.Index(stats[at:], phase)
		if i < 0 {
			t.Fatalf("no %q after byte %d of %q", phase, at, stats)
		}
		at += i
	}
	errBuf.Reset()
	if err := run([]string{"-q", "//title", "-in", docPath, "-quiet"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if stats := errBuf.String(); strings.Contains(stats, "inferred") || strings.Contains(stats, "pruned") || !strings.Contains(stats, "loaded 132 bytes in ") {
		t.Fatalf("direct run reported %q", stats)
	}
}

// TestRunKeepsAllSkipsThePrune: a projector that keeps every name prunes
// nothing, so the input is loaded as it is — the prune line still reads
// "pruned <n> -> <n> bytes" (the benchmark greps it) and says why, and
// the answer is the direct run's.
func TestRunKeepsAllSkipsThePrune(t *testing.T) {
	dtdPath, docPath := setup(t)
	var plain, out, errBuf bytes.Buffer
	if err := run([]string{"-q", "//node()", "-in", docPath}, &plain, &errBuf); err != nil {
		t.Fatal(err)
	}
	errBuf.Reset()
	if err := run([]string{"-q", "//node()", "-in", docPath, "-dtd", dtdPath, "-prune"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	stats := errBuf.String()
	for _, want := range []string{"pruned 132 -> 132 bytes in ", "not pruned, the projector keeps every name", "loaded 132 bytes in "} {
		if !strings.Contains(stats, want) {
			t.Fatalf("no %q in %q", want, stats)
		}
	}
	if out.String() != plain.String() {
		t.Fatalf("answers differ:\n%q\n%q", out.String(), plain.String())
	}
}

func TestRunQuiet(t *testing.T) {
	_, docPath := setup(t)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-q", "//title", "-in", docPath, "-quiet"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("quiet run produced output: %q", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	dtdPath, docPath := setup(t)
	var out, errBuf bytes.Buffer
	if err := run(nil, &out, &errBuf); err == nil {
		t.Fatal("missing args accepted")
	}
	if err := run([]string{"-q", "//a", "-in", "/nonexistent.xml"}, &out, &errBuf); err == nil {
		t.Fatal("missing doc accepted")
	}
	if err := run([]string{"-q", "//a", "-in", docPath, "-prune"}, &out, &errBuf); err == nil {
		t.Fatal("-prune without -dtd accepted")
	}
	_ = dtdPath
}

// q10 is the benchmark's query set: its answer_* workloads run xqrun on
// each, with and without -prune.
var q10 = []string{"QM01", "QM06", "QM07", "QM14", "QM20", "QP09", "QP11", "QP13", "QP19", "QP21"}

func querySource(id string) string {
	q, _ := bench.QueryByID(id)
	return q.Source
}

// xmarkSetup writes the XMark DTD and a factor-0.01 document.
func xmarkSetup(t *testing.T) (dtdPath, docPath string, doc []byte) {
	t.Helper()
	dir := t.TempDir()
	dtdPath, docPath = filepath.Join(dir, "auction.dtd"), filepath.Join(dir, "auction.xml")
	doc = []byte(xmark.NewGenerator(0.01, 42).Document().XML())
	if err := os.WriteFile(dtdPath, []byte(xmark.DTDSource), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(docPath, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	return dtdPath, docPath, doc
}

// The benchmark's regular expressions for xqrun's stderr.
var (
	itemsRE  = regexp.MustCompile(`(\d+) item\(s\)`)
	prunedRE = regexp.MustCompile(`pruned (\d+) -> (\d+) bytes`)
)

// TestRunQ10BenchmarkContract pins what the benchmark reads from xqrun on
// every Q10 query: -prune prints exactly what the direct run prints (Thm.
// 4.5 through the process boundary), both report the same item count,
// and the pruned line reads "pruned <in> -> <out> bytes" with <in> the
// file's size and <out> what PruneStream writes.
func TestRunQ10BenchmarkContract(t *testing.T) {
	dtdPath, docPath, doc := xmarkSetup(t)
	d, err := xmlproj.ParseDTDFile(dtdPath, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range q10 {
		src := querySource(id)
		var direct, pruned, derr, perr bytes.Buffer
		if err := run([]string{"-q", src, "-in", docPath}, &direct, &derr); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := run([]string{"-q", src, "-in", docPath, "-dtd", dtdPath, "-prune"}, &pruned, &perr); err != nil {
			t.Fatalf("%s -prune: %v", id, err)
		}
		if direct.String() != pruned.String() {
			t.Errorf("%s: -prune printed %d bytes, the direct run %d: the answers differ", id, pruned.Len(), direct.Len())
		}
		di, pi := itemsRE.FindStringSubmatch(derr.String()), itemsRE.FindStringSubmatch(perr.String())
		if di == nil || pi == nil || di[1] != pi[1] {
			t.Errorf("%s: item counts %v and %v", id, di, pi)
		}
		q, err := xmlproj.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := d.Infer(xmlproj.Materialized, q)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if _, err := p.PruneStream(&out, bytes.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
		want := []string{strconv.Itoa(len(doc)), strconv.Itoa(out.Len())}
		if p.KeepsAll() {
			want[1] = want[0]
		}
		if m := prunedRE.FindStringSubmatch(perr.String()); m == nil || m[1] != want[0] || m[2] != want[1] {
			t.Errorf("%s: pruned line %v, want %v in %q", id, m, want, perr.String())
		}
	}
}

// TestRunPrunedInputNeverResident: a selective -prune run (QM06 keeps
// a few kilobytes) allocates, from flag parsing to the printed answer,
// less than half the size of its input: the file is pruned as it is read,
// never held whole.
func TestRunPrunedInputNeverResident(t *testing.T) {
	dtdPath, docPath, doc := xmarkSetup(t)
	args := []string{"-q", querySource("QM06"), "-in", docPath, "-dtd", dtdPath, "-prune", "-quiet"}
	var out, errBuf bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := run(args, &out, &errBuf)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes allocated to answer QM06 on %d bytes: %s", allocated, len(doc), errBuf.String())
	if allocated >= uint64(len(doc))/2 {
		t.Errorf("xqrun -prune allocated %d bytes on a %d-byte input, want less than half", allocated, len(doc))
	}
}

// TestRunInputSources: the direct arm maps a regular file of 64 KiB or
// more and reads anything else whole — a short file, a pipe — and all
// three print the same answer; an empty or a missing file fails as it did
// when the file was read with os.ReadFile.
func TestRunInputSources(t *testing.T) {
	_, big, doc := xmarkSetup(t)
	_, small := setup(t)
	if len(doc) < 64<<10 {
		t.Fatalf("a %d-byte document is not mapped", len(doc))
	}
	answer := func(path string) (string, error) {
		var out, errBuf bytes.Buffer
		err := run([]string{"-q", "count(//*)", "-in", path}, &out, &errBuf)
		return out.String(), err
	}
	for name, c := range map[string]struct {
		path string
		src  []byte
	}{"mapped": {big, doc}, "short, read": {small, []byte(testDoc)}} {
		want, err := xmlproj.ParseXMLBytes(c.src)
		if err != nil {
			t.Fatal(err)
		}
		q, _ := xmlproj.Compile("count(//*)")
		res, err := q.Evaluate(want)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := answer(c.path); err != nil || got != res.Serialized+"\n" {
			t.Errorf("%s: %q, %v; want %q", name, got, err, res.Serialized)
		}
		if name == "mapped" {
			pipeAnswer(t, doc, answer, res.Serialized+"\n")
		}
	}

	empty := filepath.Join(t.TempDir(), "empty.xml")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing.xml")
	for path, want := range map[string]string{
		empty:   "tree: parse: no root element in input",
		missing: "open " + missing + ": no such file or directory",
	} {
		if _, err := answer(path); err == nil || err.Error() != want {
			t.Errorf("%s: %v, want %q", path, err, want)
		}
	}
}

// pipeAnswer runs answer on the read end of a pipe that doc is written to:
// a file that is not regular, read whole.
func pipeAnswer(t *testing.T, doc []byte, answer func(string) (string, error), want string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	path := "/dev/fd/" + strconv.Itoa(int(r.Fd()))
	if _, err := os.Stat(path); err != nil {
		w.Close()
		t.Skipf("no %s on this system", path)
	}
	go func() {
		w.Write(doc)
		w.Close()
	}()
	if got, err := answer(path); err != nil || got != want {
		t.Errorf("pipe: %q, %v; want %q", got, err, want)
	}
}
