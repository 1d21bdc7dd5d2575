package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// defaultSeed is the seed golden.json was recorded with; any other seed
// is verified by cross-route agreement alone.
const defaultSeed = 42

//go:embed golden.json
var goldenJSON []byte

// env is where a run lives: the checkout, the binaries built from it
// and a work directory for inputs and outputs. Everything is inside the
// checkout's .bench_build directory.
type env struct {
	root, bin, work string
	seed            int64
	golden          map[string]outputID // empty unless seed == defaultSeed
	docBytes        map[string]int64    // generated document sizes
}

// findRoot walks up from the working directory to the checkout root,
// the directory holding BENCHMARK.json and the module's go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isFile(filepath.Join(dir, "BENCHMARK.json")) && isFile(filepath.Join(dir, "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no checkout root (BENCHMARK.json beside go.mod) above the working directory")
		}
		dir = parent
	}
}

func isFile(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.Mode().IsRegular()
}

func newEnv(root string, seed int64) (*env, error) {
	build := filepath.Join(root, ".bench_build")
	e := &env{
		root: root, bin: filepath.Join(build, "bin"),
		work: filepath.Join(build, "work-"+strconv.Itoa(os.Getpid())),
		seed: seed, golden: map[string]outputID{}, docBytes: map[string]int64{},
	}
	if seed == defaultSeed {
		if err := json.Unmarshal(goldenJSON, &e.golden); err != nil {
			return nil, fmt.Errorf("golden.json: %w", err)
		}
	}
	for _, dir := range []string{e.bin, e.work} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *env) close() { os.RemoveAll(e.work) }

func (e *env) path(name string) string { return filepath.Join(e.work, name) }
func (e *env) doc(name string) string  { return e.path(name + ".xml") }
func (e *env) dtd() string             { return e.path("auction.dtd") }
func (e *env) tool(name string) string { return filepath.Join(e.bin, name) }

// build compiles the repository's five commands into e.bin. run.sh
// points the Go build cache and temporary directory into the checkout,
// so a run writes nothing outside it; after the first build this is a
// cache hit.
func (e *env) build() (time.Duration, error) {
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", e.bin+string(filepath.Separator), "./cmd/...")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/...: %w\n%s", err, out)
	}
	return time.Since(start), nil
}

// generate writes the DTD and the named documents from the seed. The
// programs under test see only these files, never the seed.
func (e *env) generate(docs []string) (time.Duration, error) {
	start := time.Now()
	gen := e.tool("xmarkgen")
	if _, err := runProc(gen, []string{"-dtd", "-o", e.dtd()}, nil, nil); err != nil {
		return 0, err
	}
	for _, d := range docs {
		args := []string{"-factor", docFactor[d], "-seed", strconv.FormatInt(e.seed, 10), "-o", e.doc(d)}
		if _, err := runProc(gen, args, nil, nil); err != nil {
			return 0, err
		}
		fi, err := os.Stat(e.doc(d))
		if err != nil {
			return 0, err
		}
		e.docBytes[d] = fi.Size()
	}
	return time.Since(start), nil
}

// checkGolden compares an output with golden.json when the run uses
// the default seed and the key was recorded; seen collects what a
// -write-golden run stores.
func (e *env) checkGolden(key string, got outputID, seen map[string]outputID) error {
	seen[key] = got
	if want, ok := e.golden[key]; ok && want != got {
		return fmt.Errorf("%s: output is %d bytes sha256 %s, golden.json has %d bytes sha256 %s",
			key, got.Len, got.SHA256, want.Len, want.SHA256)
	}
	return nil
}
