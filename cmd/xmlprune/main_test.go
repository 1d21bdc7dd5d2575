package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
	// One document against many projections is one union projector
	// (repeated -q), not a shared scan with an output each.
	err := run([]string{"-dtd", dtdPath, "-proj", "x=//a"}, strings.NewReader(""), &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -proj") {
		t.Fatalf("-proj: err = %v, want an unknown-flag error", err)
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
