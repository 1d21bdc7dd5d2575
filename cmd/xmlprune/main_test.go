package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xmlproj"
)

const testDTD = `
<!ELEMENT bib (book*)>
<!ELEMENT book (title, author+, year?)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT year (#PCDATA)>
`

const testDoc = `<bib><book><title>Commedia</title><author>Dante</author><year>1313</year></book></bib>`

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunPrunes(t *testing.T) {
	dir := t.TempDir()
	dtdPath := write(t, dir, "bib.dtd", testDTD)
	var out, errBuf bytes.Buffer
	err := run([]string{"-dtd", dtdPath, "-q", "//book/title"},
		strings.NewReader(testDoc), &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "<title>Commedia</title>") {
		t.Fatalf("title lost: %s", got)
	}
	if strings.Contains(got, "Dante") || strings.Contains(got, "1313") {
		t.Fatalf("authors/years not pruned: %s", got)
	}
	if !strings.Contains(errBuf.String(), "pruned in") {
		t.Fatalf("stats missing: %s", errBuf.String())
	}
}

func TestRunShow(t *testing.T) {
	dir := t.TempDir()
	dtdPath := write(t, dir, "bib.dtd", testDTD)
	var out, errBuf bytes.Buffer
	err := run([]string{"-dtd", dtdPath, "-q", "//book/year", "-show"},
		strings.NewReader(""), &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "year") || strings.Contains(out.String(), "author") {
		t.Fatalf("-show output wrong: %s", out.String())
	}
}

func TestRunSaveAndLoadProjector(t *testing.T) {
	dir := t.TempDir()
	dtdPath := write(t, dir, "bib.dtd", testDTD)
	projPath := filepath.Join(dir, "pi.txt")
	var out1, out2, errBuf bytes.Buffer
	if err := run([]string{"-dtd", dtdPath, "-q", "//book/title", "-save-projector", projPath},
		strings.NewReader(testDoc), &out1, &errBuf); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-dtd", dtdPath, "-load-projector", projPath},
		strings.NewReader(testDoc), &out2, &errBuf); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Fatalf("loaded projector prunes differently:\n%s\n%s", out1.String(), out2.String())
	}
}

func TestRunValidateRejectsInvalid(t *testing.T) {
	dir := t.TempDir()
	dtdPath := write(t, dir, "bib.dtd", testDTD)
	var out, errBuf bytes.Buffer
	err := run([]string{"-dtd", dtdPath, "-q", "//title", "-validate"},
		strings.NewReader(`<bib><book><author>no title</author></book></bib>`), &out, &errBuf)
	if err == nil {
		t.Fatal("invalid document accepted with -validate")
	}
}

// TestRunFailureLeavesNoPartialOutput: a prune failing mid-stream must
// not leave a truncated output document behind.
func TestRunFailureLeavesNoPartialOutput(t *testing.T) {
	dir := t.TempDir()
	dtdPath := write(t, dir, "bib.dtd", testDTD)
	outPath := filepath.Join(dir, "pruned.xml")
	// The document starts valid (so output is written) and then hits an
	// undeclared element, failing the prune mid-stream.
	bad := `<bib><book><title>Commedia</title></book><wrong></wrong></bib>`
	var out, errBuf bytes.Buffer
	err := run([]string{"-dtd", dtdPath, "-q", "//book/title", "-out", outPath},
		strings.NewReader(bad), &out, &errBuf)
	if err == nil {
		t.Fatal("failed prune reported success")
	}
	if _, serr := os.Stat(outPath); !os.IsNotExist(serr) {
		t.Fatalf("partial output file left behind: %v", serr)
	}
}

// TestRunLoadProjectorDoesNotClaimInference: with -load-projector the
// analysis never ran, so the stats line must not say "inferred in".
func TestRunLoadProjectorDoesNotClaimInference(t *testing.T) {
	dir := t.TempDir()
	dtdPath := write(t, dir, "bib.dtd", testDTD)
	projPath := filepath.Join(dir, "pi.txt")
	var out, errBuf bytes.Buffer
	if err := run([]string{"-dtd", dtdPath, "-q", "//book/title", "-save-projector", projPath},
		strings.NewReader(testDoc), &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf.String(), "inferred in") {
		t.Fatalf("inference run should report its time: %s", errBuf.String())
	}
	errBuf.Reset()
	out.Reset()
	if err := run([]string{"-dtd", dtdPath, "-load-projector", projPath},
		strings.NewReader(testDoc), &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(errBuf.String(), "inferred in") {
		t.Fatalf("-load-projector claims an inference happened: %s", errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "pruned in") {
		t.Fatalf("stats line missing: %s", errBuf.String())
	}
	// -show on a loaded projector reports its origin, not a bogus time.
	errBuf.Reset()
	out.Reset()
	if err := run([]string{"-dtd", dtdPath, "-load-projector", projPath, "-show"},
		strings.NewReader(""), &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "inferred in") || !strings.Contains(out.String(), "loaded from") {
		t.Fatalf("-show origin wrong: %s", out.String())
	}
}

// TestRunManyInputs drives the batch path: repeatable -in, globs, -jobs,
// and an output directory.
func TestRunManyInputs(t *testing.T) {
	dir := t.TempDir()
	dtdPath := write(t, dir, "bib.dtd", testDTD)
	for i := 0; i < 5; i++ {
		doc := strings.Replace(testDoc, "Commedia", "Book"+string(rune('A'+i)), 1)
		write(t, dir, "doc"+string(rune('a'+i))+".xml", doc)
	}
	outDir := filepath.Join(dir, "pruned")
	var out, errBuf bytes.Buffer
	err := run([]string{"-dtd", dtdPath, "-q", "//book/title",
		"-in", filepath.Join(dir, "doc*.xml"), "-jobs", "3", "-out", outDir},
		strings.NewReader(""), &out, &errBuf)
	if err != nil {
		t.Fatalf("%v (stderr: %s)", err, errBuf.String())
	}
	for i := 0; i < 5; i++ {
		name := "doc" + string(rune('a'+i)) + ".xml"
		data, rerr := os.ReadFile(filepath.Join(outDir, name))
		if rerr != nil {
			t.Fatal(rerr)
		}
		if want := "Book" + string(rune('A'+i)); !strings.Contains(string(data), want) {
			t.Fatalf("%s: pruned output lost %s: %s", name, want, data)
		}
		if strings.Contains(string(data), "Dante") {
			t.Fatalf("%s: authors not pruned: %s", name, data)
		}
	}
	if !strings.Contains(errBuf.String(), "pruned 5/5 documents") {
		t.Fatalf("batch summary missing: %s", errBuf.String())
	}

	// A failing document: fail-fast by default (non-zero exit, its
	// output removed), -keep-going prunes the rest.
	write(t, dir, "bad.xml", `<bib><oops/></bib>`)
	outDir2 := filepath.Join(dir, "pruned2")
	errBuf.Reset()
	err = run([]string{"-dtd", dtdPath, "-q", "//book/title",
		"-in", filepath.Join(dir, "bad.xml"), "-in", filepath.Join(dir, "doca.xml"),
		"-jobs", "1", "-keep-going", "-out", outDir2},
		strings.NewReader(""), &out, &errBuf)
	if err == nil {
		t.Fatal("batch with a bad document reported success")
	}
	if _, serr := os.Stat(filepath.Join(outDir2, "bad.xml")); !os.IsNotExist(serr) {
		t.Fatal("failed job left a partial output")
	}
	if _, serr := os.Stat(filepath.Join(outDir2, "doca.xml")); serr != nil {
		t.Fatalf("-keep-going did not prune the healthy document: %v", serr)
	}

	// Multiple inputs to stdout is rejected.
	if err := run([]string{"-dtd", dtdPath, "-q", "//book/title",
		"-in", filepath.Join(dir, "doca.xml"), "-in", filepath.Join(dir, "docb.xml")},
		strings.NewReader(""), &out, &errBuf); err == nil {
		t.Fatal("multiple inputs without -out accepted")
	}
	// A glob that matches nothing is rejected.
	if err := run([]string{"-dtd", dtdPath, "-q", "//book/title",
		"-in", filepath.Join(dir, "nothing*.xml"), "-out", outDir},
		strings.NewReader(""), &out, &errBuf); err == nil {
		t.Fatal("empty glob accepted")
	}
}

func TestRunMissingArgs(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run(nil, strings.NewReader(""), &out, &errBuf); err == nil {
		t.Fatal("missing -dtd/-q accepted")
	}
	dir := t.TempDir()
	dtdPath := write(t, dir, "bib.dtd", testDTD)
	if err := run([]string{"-dtd", dtdPath, "-q", "]broken["},
		strings.NewReader(""), &out, &errBuf); err == nil {
		t.Fatal("broken query accepted")
	}
	if err := run([]string{"-dtd", filepath.Join(dir, "missing.dtd"), "-q", "//a"},
		strings.NewReader(""), &out, &errBuf); err == nil {
		t.Fatal("missing DTD file accepted")
	}
}

func TestRunMultiProj(t *testing.T) {
	dir := t.TempDir()
	dtdPath := write(t, dir, "bib.dtd", testDTD)
	docPath := write(t, dir, "bib.xml", testDoc)
	outDir := filepath.Join(dir, "out")

	var out, errBuf bytes.Buffer
	err := run([]string{
		"-dtd", dtdPath, "-in", docPath, "-out", outDir,
		"-proj", "titles=//book/title",
		"-proj", "authors=//book/author",
	}, strings.NewReader(""), &out, &errBuf)
	if err != nil {
		t.Fatalf("%v\nstderr: %s", err, errBuf.String())
	}

	// Each output must match a serial single-projection run.
	for _, c := range []struct{ name, query, want, reject string }{
		{"titles", "//book/title", "Commedia", "Dante"},
		{"authors", "//book/author", "Dante", "Commedia"},
	} {
		got, rerr := os.ReadFile(filepath.Join(outDir, c.name+".xml"))
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !strings.Contains(string(got), c.want) || strings.Contains(string(got), c.reject) {
			t.Fatalf("%s output wrong: %s", c.name, got)
		}
		var serial, serialErr bytes.Buffer
		if err := run([]string{"-dtd", dtdPath, "-q", c.query},
			strings.NewReader(testDoc), &serial, &serialErr); err != nil {
			t.Fatal(err)
		}
		if serial.String() != string(got) {
			t.Fatalf("%s diverges from serial prune\nmulti:  %q\nserial: %q", c.name, got, serial.String())
		}
	}
	if !strings.Contains(errBuf.String(), "shared scan") {
		t.Fatalf("summary missing: %s", errBuf.String())
	}
}

func TestRunMultiProjSingleToStdout(t *testing.T) {
	dir := t.TempDir()
	dtdPath := write(t, dir, "bib.dtd", testDTD)
	var out, errBuf bytes.Buffer
	err := run([]string{"-dtd", dtdPath, "-proj", "titles=//book/title"},
		strings.NewReader(testDoc), &out, &errBuf)
	if err != nil {
		t.Fatalf("%v\nstderr: %s", err, errBuf.String())
	}
	if !strings.Contains(out.String(), "<title>Commedia</title>") || strings.Contains(out.String(), "Dante") {
		t.Fatalf("stdout output wrong: %s", out.String())
	}
}

func TestRunMultiProjBadSpecs(t *testing.T) {
	dir := t.TempDir()
	dtdPath := write(t, dir, "bib.dtd", testDTD)
	for _, args := range [][]string{
		{"-dtd", dtdPath, "-proj", "noequals"},
		{"-dtd", dtdPath, "-proj", "a=//book/title", "-proj", "a=//book/year"},
		{"-dtd", dtdPath, "-proj", "a=//book/title", "-q", "//book/year"},
		{"-dtd", dtdPath, "-proj", "a=//book/title", "-proj", "b=//book/year"}, // two projs, no -out
	} {
		var out, errBuf bytes.Buffer
		if err := run(args, strings.NewReader(testDoc), &out, &errBuf); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestRunMultiProjStdinBounded: the -proj shared scan buffers stdin
// whole, so the read is capped — an over-limit pipe is rejected with a
// clear error instead of swallowing unbounded memory.
func TestRunMultiProjStdinBounded(t *testing.T) {
	dir := t.TempDir()
	dtdPath := write(t, dir, "bib.dtd", testDTD)

	prev := maxMultiStdinBytes
	maxMultiStdinBytes = 64
	defer func() { maxMultiStdinBytes = prev }()

	var out, errBuf bytes.Buffer
	err := run([]string{"-dtd", dtdPath, "-proj", "titles=//book/title"},
		strings.NewReader(testDoc), &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "stdin input exceeds") {
		t.Fatalf("oversized stdin accepted: %v", err)
	}

	// At the limit exactly, the prune still runs.
	maxMultiStdinBytes = int64(len(testDoc))
	out.Reset()
	if err := run([]string{"-dtd", dtdPath, "-proj", "titles=//book/title"},
		strings.NewReader(testDoc), &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "<title>Commedia</title>") {
		t.Fatalf("output wrong: %s", out.String())
	}
}

// TestRunBatchDuplicateInputs: a batch is one prune per input, and two
// byte-identical inputs are two prunes — both outputs equal a single
// prune of that document, and no cache is mentioned. -result-cache, the
// flag that used to pick between two batch paths, is gone.
func TestRunBatchDuplicateInputs(t *testing.T) {
	dir := t.TempDir()
	dtdPath := write(t, dir, "bib.dtd", testDTD)
	a := write(t, dir, "a.xml", testDoc)
	b := write(t, dir, "b.xml", testDoc) // same content, different file
	outDir := filepath.Join(dir, "out")

	var out, single, errBuf bytes.Buffer
	if err := run([]string{"-dtd", dtdPath, "-q", "//book/title", "-in", a}, strings.NewReader(""), &single, &errBuf); err != nil {
		t.Fatal(err)
	}
	errBuf.Reset()
	err := run([]string{"-dtd", dtdPath, "-q", "//book/title", "-jobs", "1",
		"-in", a, "-in", b, "-out", outDir},
		strings.NewReader(""), &out, &errBuf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a.xml", "b.xml"} {
		got, err := os.ReadFile(filepath.Join(outDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, single.Bytes()) || !strings.Contains(string(got), "<title>Commedia</title>") {
			t.Fatalf("%s differs from a single prune or lost the title:\n got: %s\nwant: %s", name, got, single.Bytes())
		}
	}
	if !strings.Contains(errBuf.String(), "pruned 2/2 documents") || strings.Contains(errBuf.String(), "cache") {
		t.Fatalf("batch summary: %s", errBuf.String())
	}

	errBuf.Reset()
	err = run([]string{"-dtd", dtdPath, "-q", "//book/title", "-result-cache", "0", "-in", a},
		strings.NewReader(""), &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -result-cache") {
		t.Fatalf("-result-cache: err = %v, want an unknown-flag error", err)
	}
}

// countingWriter counts Write calls.
type countingWriter struct {
	calls, bytes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.calls++
	c.bytes += len(p)
	return len(p), nil
}

// TestProjOutputIsBuffered: a gather result reaches a -proj output file
// in 64 KiB writes, not in one write(2) per span — which is what handing
// the *os.File to WriteTo costs, and what xmlprune did: 5 103 writes for
// 73 329 bytes on one XMark projection.
func TestProjOutputIsBuffered(t *testing.T) {
	d, err := xmlproj.ParseDTDString(testDTD, "bib")
	if err != nil {
		t.Fatal(err)
	}
	q, err := xmlproj.CompileXPath("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Infer(xmlproj.Materialized, q)
	if err != nil {
		t.Fatal(err)
	}
	var doc strings.Builder
	doc.WriteString("<bib>")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&doc, "<book><title>Canto %d</title><author>Dante</author><year>1313</year></book>", i)
	}
	doc.WriteString("</bib>")
	results, errs := xmlproj.PruneMultiGather([]*xmlproj.Projector{p}, []byte(doc.String()), xmlproj.StreamOptions{})
	if errs[0] != nil {
		t.Fatal(errs[0])
	}
	res := results[0]
	defer res.Close()

	var direct, buffered countingWriter
	if _, err := res.WriteTo(&direct); err != nil {
		t.Fatal(err)
	}
	if err := writeBuffered(&buffered, res); err != nil {
		t.Fatal(err)
	}
	size := int(res.Len())
	if buffered.bytes != size || direct.bytes != size {
		t.Fatalf("wrote %d buffered and %d direct of %d bytes", buffered.bytes, direct.bytes, size)
	}
	if direct.calls != res.Segments() || direct.calls < 5000 {
		t.Fatalf("unbuffered WriteTo made %d writes for %d segments: the fixture no longer shows the problem", direct.calls, res.Segments())
	}
	if limit := size/(32<<10) + 2; buffered.calls > limit {
		t.Fatalf("%d bytes reached the file in %d writes, want <= %d", size, buffered.calls, limit)
	}
}

// TestExpandInputsDedupe: overlapping patterns yield each path once.
func TestExpandInputsDedupe(t *testing.T) {
	dir := t.TempDir()
	a := write(t, dir, "a.xml", testDoc)
	got, err := expandInputs([]string{a, filepath.Join(dir, "*.xml"), a})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != a {
		t.Fatalf("expandInputs = %v, want just %q", got, a)
	}
}
