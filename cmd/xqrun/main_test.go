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

// TestRunReportsPhases: the schema parse and the paper's four phases
// each get a line on stderr, in order, and the two the benchmark reads
// keep their wording.
func TestRunReportsPhases(t *testing.T) {
	dtdPath, docPath := setup(t)
	var out, errBuf bytes.Buffer
	if err := run([]string{"-q", "//title", "-in", docPath, "-dtd", dtdPath, "-prune", "-quiet"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	stats := errBuf.String()
	at := 0
	for _, phase := range []string{"parsed the schema in ", "inferred the projector in ", "pruned 132 -> 84 bytes in ", "loaded 84 bytes in ", "evaluated to 2 item(s), 48 bytes serialised, in "} {
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
