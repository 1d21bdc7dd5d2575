package xmlproj

import (
	"bufio"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var runMutants = flag.Bool("mutants", false, "run TestMutants: each mutant of testdata/mutants.txt under go test -overlay")

// mutant is one line of testdata/mutants.txt: a one-line change to a
// file, the packages whose tests must kill it, and, for a mutant that no
// test can kill, the reason it is equivalent.
type mutant struct {
	name, file, old, new string
	pkgs                 []string
	equivalent           string
	line                 int
}

// readMutants parses testdata/mutants.txt.
func readMutants(t *testing.T) []mutant {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "mutants.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []mutant
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Split(line, "\t")
		if len(fs) != 5 && len(fs) != 6 {
			t.Fatalf("mutants.txt:%d: %d tab-separated fields, want 5 or 6", n, len(fs))
		}
		m := mutant{name: fs[0], file: fs[1], old: fs[2], new: fs[3], pkgs: strings.Fields(fs[4]), line: n}
		if len(fs) == 6 {
			reason, ok := strings.CutPrefix(fs[5], "equivalent: ")
			if !ok || strings.TrimSpace(reason) == "" {
				t.Fatalf("mutants.txt:%d: the sixth field is %q, want \"equivalent: <reason>\"", n, fs[5])
			}
			m.equivalent = reason
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// mutated is the file's text with the mutant applied. A line that does
// not apply once fails the test.
func (m mutant) mutated(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile(m.file)
	if err != nil {
		t.Fatalf("mutants.txt:%d: %v", m.line, err)
	}
	switch n := strings.Count(string(src), m.old); {
	case m.old == m.new:
		t.Fatalf("mutants.txt:%d (%s): the new text is the old", m.line, m.name)
	case n != 1:
		t.Fatalf("mutants.txt:%d (%s): the old text occurs %d times in %s, want once", m.line, m.name, n, m.file)
	case len(m.pkgs) == 0:
		t.Fatalf("mutants.txt:%d (%s): no package to test", m.line, m.name)
	}
	return strings.Replace(string(src), m.old, m.new, 1)
}

// TestMutantList: every mutant applies, once, to the file as it is, so
// the list cannot rot between the harness's runs.
func TestMutantList(t *testing.T) {
	ms := readMutants(t)
	if len(ms) == 0 {
		t.Fatal("no mutants")
	}
	for _, m := range ms {
		m.mutated(t)
	}
}

// TestMutants is the mutation harness: each mutant of the list is built
// through go test -overlay, which swaps the mutated file in at build time
// and edits no file of the tree, and the tests of its packages must fail.
// A mutant they pass survives, and fails the harness unless the list
// marks it equivalent; one marked equivalent that a test kills fails it
// too, so the mark is dropped. A mutant that does not compile is an
// error of the list. It runs only with -mutants (CI's rotating slot):
// each mutant is one go test of up to three packages.
func TestMutants(t *testing.T) {
	if !*runMutants {
		t.Skip("the mutation harness runs with -mutants")
	}
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	dir := t.TempDir()
	for i, m := range readMutants(t) {
		abs, err := filepath.Abs(m.file)
		if err != nil {
			t.Fatal(err)
		}
		src := filepath.Join(dir, filepath.Base(m.file))
		if err := os.WriteFile(src, []byte(m.mutated(t)), 0o644); err != nil {
			t.Fatal(err)
		}
		overlay, err := json.Marshal(map[string]map[string]string{"Replace": {abs: src}})
		if err != nil {
			t.Fatal(err)
		}
		ov := filepath.Join(dir, "overlay.json")
		if err := os.WriteFile(ov, overlay, 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(goTool, append([]string{"test", "-count=1", "-overlay", ov}, m.pkgs...)...)
		out, err := cmd.CombinedOutput()
		killed := err != nil
		switch {
		case strings.Contains(string(out), "[build failed]") || strings.Contains(string(out), "[setup failed]"):
			t.Errorf("mutant %d (%s) does not compile:\n%s", i+1, m.name, out)
		case !killed && m.equivalent == "":
			t.Errorf("mutant %d (%s) survives: %s: %q → %q passes go test %s", i+1, m.name, m.file, m.old, m.new, strings.Join(m.pkgs, " "))
		case killed && m.equivalent != "":
			t.Errorf("mutant %d (%s) is marked equivalent (%s) but %s kill it", i+1, m.name, m.equivalent, strings.Join(failures(out), ", "))
		case killed:
			t.Logf("mutant %d (%s) killed by %s", i+1, m.name, strings.Join(failures(out), ", "))
		default:
			t.Logf("mutant %d (%s) survives, equivalent: %s", i+1, m.name, m.equivalent)
		}
	}
}

// failures lists the tests a go test run reports failing, or, when a
// package fails without naming one (a panic), its FAIL lines.
func failures(out []byte) []string {
	var names, pkgs []string
	for _, l := range strings.Split(string(out), "\n") {
		if name, ok := strings.CutPrefix(strings.TrimSpace(l), "--- FAIL: "); ok {
			names = append(names, strings.Fields(name)[0])
		} else if strings.HasPrefix(l, "FAIL\t") {
			pkgs = append(pkgs, l)
		}
	}
	if len(names) == 0 {
		return pkgs
	}
	return names
}
