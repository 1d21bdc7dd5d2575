// Command xmlprune prunes XML documents for a set of queries: it infers
// the type projector from the DTD and the queries' data needs, then
// streams each document through the one-pass pruner.
//
// Usage:
//
//	xmlprune -dtd auction.dtd -root site -q '//person[homepage]/name' \
//	         -q 'for $i in /site/regions/australia/item return $i/name' \
//	         -in auction.xml -out pruned.xml
//
// Multiple -q flags build one union projector (§5: a single pruned
// document serves the whole bunch). -in is repeatable and accepts glob
// patterns; with more than one input document, -out names a directory
// and the documents are pruned concurrently by -jobs workers (the
// projector is inferred once and shared — it depends only on the schema
// and the queries). With -show the inferred projector is printed instead
// of pruning; -validate fuses DTD validation of what the projector keeps
// with the prune;
// -save-projector / -load-projector persist an inferred projector so
// loaders can reuse it without re-running the analysis.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"xmlproj"
	"xmlproj/internal/mmapio"
)

type stringList []string

func (q *stringList) String() string     { return fmt.Sprint(*q) }
func (q *stringList) Set(s string) error { *q = append(*q, s); return nil }

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "xmlprune:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("xmlprune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dtdPath := fs.String("dtd", "", "DTD file, or an XML Schema if the name ends in .xsd (required)")
	root := fs.String("root", "", "root element (default: first declared)")
	out := fs.String("out", "", "output document, or output directory with multiple inputs (default stdout)")
	show := fs.Bool("show", false, "print the inferred projector and exit")
	saveProj := fs.String("save-projector", "", "also write the inferred projector to this file")
	loadProj := fs.String("load-projector", "", "skip inference and load a projector previously saved with -save-projector")
	validateFlag := fs.Bool("validate", false, "validate what the projector keeps against the DTD while pruning, and check the whole document for well-formedness (a discarded subtree is not validated against the DTD); without it the subtrees the projector discards are only checked for balanced tags")
	materialize := fs.Bool("materialize", true, "keep full subtrees of result nodes")
	jobs := fs.Int("jobs", 0, "concurrent pruning workers for multiple inputs (default GOMAXPROCS)")
	keepGoing := fs.Bool("keep-going", false, "with multiple inputs, prune the rest after a document fails")
	var queries, ins stringList
	fs.Var(&queries, "q", "query (XPath or XQuery); repeatable")
	fs.Var(&ins, "in", "input document or glob pattern; repeatable (default stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *dtdPath == "" || (len(queries) == 0 && *loadProj == "") {
		fs.Usage()
		return fmt.Errorf("-dtd and at least one -q (or -load-projector) are required")
	}

	d, err := xmlproj.ParseSchemaFile(*dtdPath, *root)
	if err != nil {
		return err
	}
	inferred := *loadProj == ""
	start := time.Now()
	var p *xmlproj.Projector
	if !inferred {
		text, err := os.ReadFile(*loadProj)
		if err != nil {
			return err
		}
		if p, err = d.LoadProjector(text); err != nil {
			return err
		}
	} else {
		compiled := make([]*xmlproj.Query, len(queries))
		for i, src := range queries {
			q, err := xmlproj.Compile(src)
			if err != nil {
				return fmt.Errorf("query %q: %w", src, err)
			}
			compiled[i] = q
		}
		mode := xmlproj.NodesOnly
		if *materialize {
			mode = xmlproj.Materialized
		}
		if p, err = d.Infer(mode, compiled...); err != nil {
			return err
		}
	}
	inferTime := time.Since(start)
	// inferNote reports the analysis cost only when the analysis ran; a
	// projector loaded from disk was not "inferred in 40µs".
	inferNote := ""
	if inferred {
		inferNote = fmt.Sprintf("inferred in %s; ", inferTime)
	}
	if *saveProj != "" {
		text, err := p.MarshalText()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*saveProj, append(text, '\n'), 0o644); err != nil {
			return err
		}
	}

	if *show {
		origin := fmt.Sprintf("inferred in %s", inferTime)
		if !inferred {
			origin = fmt.Sprintf("loaded from %s", *loadProj)
		}
		fmt.Fprintf(stdout, "projector (%d names, keep ratio %.1f%%, %s):\n",
			len(p.Names()), 100*p.KeepRatio(), origin)
		for _, n := range p.Names() {
			fmt.Fprintln(stdout, " ", n)
		}
		return nil
	}

	inputs, err := expandInputs(ins)
	if err != nil {
		return err
	}

	// Build the batch: one job per input (or one stdin job). Inputs open
	// lazily and outputs are created lazily and closed by the engine, so
	// open file descriptors are bounded by the worker count, not by the
	// batch size.
	var batch []xmlproj.BatchJob
	var sinks []*fileSink
	var srcs []*fileSource
	var stdoutBuf *bufio.Writer

	// newDst resolves a job's destination: the shared buffered stdout
	// when no path is given, a lazily-created file sink otherwise.
	newDst := func(outPath, name string) io.Writer {
		if outPath == "" {
			if stdoutBuf == nil {
				stdoutBuf = bufio.NewWriterSize(stdout, 1<<20)
			}
			return stdoutBuf
		}
		sink := &fileSink{path: outPath, name: name}
		sinks = append(sinks, sink)
		return sink
	}

	addFileJob := func(inPath, outPath string) {
		src := &fileSource{lazyFile: lazyFile{path: inPath}}
		srcs = append(srcs, src)
		batch = append(batch, xmlproj.BatchJob{Name: inPath, Src: src, Dst: newDst(outPath, inPath)})
	}

	switch {
	case len(inputs) == 0:
		batch = append(batch, xmlproj.BatchJob{Name: "stdin", Src: bufio.NewReaderSize(stdin, 1<<20), Dst: newDst(*out, "stdin")})
	case len(inputs) == 1 && !isDir(*out):
		addFileJob(inputs[0], *out)
	default:
		if *out == "" {
			return fmt.Errorf("multiple inputs need -out naming a directory")
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		seen := make(map[string]string)
		for _, in := range inputs {
			base := filepath.Base(in)
			if prev, dup := seen[base]; dup {
				return fmt.Errorf("inputs %s and %s would both write %s", prev, in, filepath.Join(*out, base))
			}
			seen[base] = in
			addFileJob(in, filepath.Join(*out, base))
		}
	}

	eng := xmlproj.NewEngine(xmlproj.EngineOptions{})
	start = time.Now()
	results, agg, batchErr := eng.PruneBatch(context.Background(), p, batch, xmlproj.BatchOptions{
		Workers:  *jobs,
		Validate: *validateFlag,
		FailFast: !*keepGoing,
	})
	elapsed := time.Since(start)
	// Release the input mappings now that every prune has run; output
	// writers hold copies (or already wrote through), never spans.
	for _, src := range srcs {
		src.close()
	}
	// The engine closed the file sinks (reporting close errors per job);
	// remove the output of every job that did not fully succeed, so a
	// failed prune never leaves a partial document behind.
	for _, sink := range sinks {
		sink.removeIfFailed(results)
	}
	if stdoutBuf != nil {
		if err := stdoutBuf.Flush(); err != nil && batchErr == nil {
			batchErr = err
		}
	}
	// Per-job error lines only make sense for batches; a single job's
	// error is the returned error, and printing it here would show it
	// twice.
	if len(batch) > 1 {
		for _, r := range results {
			if r.Err != nil {
				fmt.Fprintf(stderr, "xmlprune: %s: %v\n", r.Name, r.Err)
			}
		}
	}
	if len(batch) == 1 {
		if batchErr == nil {
			r := results[0]
			st := r.Stats
			fmt.Fprintf(stderr,
				"xmlprune: %spruned in %s; elements %d -> %d; %d -> %d bytes (%.1f MB/s); depth %d\n",
				inferNote, elapsed, st.ElementsIn, st.ElementsOut,
				r.BytesIn, st.BytesOut, r.Throughput(), st.MaxDepth)
		}
	} else {
		for _, r := range results {
			if r.Err != nil {
				continue
			}
			fmt.Fprintf(stderr, "xmlprune: %s: %d -> %d bytes in %s (%.1f MB/s)\n",
				r.Name, r.BytesIn, r.Stats.BytesOut, r.Elapsed.Round(time.Microsecond), r.Throughput())
		}
		mbps := 0.0
		if elapsed > 0 {
			mbps = float64(agg.BytesIn) / elapsed.Seconds() / 1e6
		}
		fmt.Fprintf(stderr,
			"xmlprune: %spruned %d/%d documents in %s; elements %d -> %d; %d -> %d bytes (%.1f MB/s); depth %d\n",
			inferNote, agg.Pruned, len(batch), elapsed,
			agg.ElementsIn, agg.ElementsOut, agg.BytesIn, agg.BytesOut, mbps, agg.MaxDepth)
	}
	return batchErr
}

// expandInputs glob-expands every -in value; a value without matches is
// kept literally when it has no glob metacharacters (so a missing file
// reports a useful open error) and rejected otherwise. A path produced
// by several overlapping patterns is kept once — the same file pruned
// twice would also collide on its output name.
func expandInputs(ins []string) ([]string, error) {
	var out []string
	seen := make(map[string]bool)
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range ins {
		matches, err := filepath.Glob(pat)
		if err != nil {
			return nil, fmt.Errorf("bad -in pattern %q: %w", pat, err)
		}
		switch {
		case len(matches) > 0:
			sort.Strings(matches)
			for _, m := range matches {
				add(m)
			}
		case !strings.ContainsAny(pat, "*?["):
			add(pat)
		default:
			return nil, fmt.Errorf("-in pattern %q matches nothing", pat)
		}
	}
	return out, nil
}

func isDir(path string) bool {
	if path == "" {
		return false
	}
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// lazyFile opens its file on first read and closes it at EOF or on
// error, so a large batch never holds more inputs open than there are
// workers actively reading.
type lazyFile struct {
	path string
	f    *os.File
	done bool
}

func (l *lazyFile) Read(p []byte) (int, error) {
	if l.done {
		return 0, io.EOF
	}
	if l.f == nil {
		f, err := os.Open(l.path)
		if err != nil {
			l.done = true
			return 0, err
		}
		l.f = f
	}
	n, err := l.f.Read(p)
	if err != nil {
		l.f.Close()
		l.f = nil
		l.done = true
	}
	return n, err
}

// fileSource is a batch input backed by a regular file. The prune asks
// it for in-memory bytes (prune.BytesSource) and gets the whole file
// mapped — whole-file prunes then run zero read-copy end to end, the
// scanner tokenizing the page cache in place — with the embedded
// lazyFile's streaming reads as the fallback for irregular files,
// pipes, and failed maps.
type fileSource struct {
	lazyFile
	data *mmapio.Data
}

// InputBytes implements prune.BytesSource: called at most once, at the
// prune's point of commitment, it maps (or for short files reads) the
// whole input. Returning nil declines and the prune falls back to
// streaming reads.
func (s *fileSource) InputBytes() []byte {
	d, err := mmapio.Open(s.path)
	if err != nil {
		return nil
	}
	s.data = d
	return d.Bytes()
}

// close releases the mapping after the batch; the prune is done with
// the bytes by then.
func (s *fileSource) close() {
	if s.data != nil {
		s.data.Close()
		s.data = nil
	}
}

// fileSink creates its file on first write, reports the Close error (a
// full disk often only fails at close), and can remove the file again if
// the job it served did not fully succeed.
type fileSink struct {
	path    string
	name    string // job name, for removeIfFailed
	f       *os.File
	created bool
}

func (s *fileSink) Write(p []byte) (int, error) {
	if s.f == nil {
		f, err := os.Create(s.path)
		if err != nil {
			return 0, err
		}
		s.f = f
		s.created = true
	}
	return s.f.Write(p)
}

// Close is called by the engine when the job finishes.
func (s *fileSink) Close() error {
	if s.f == nil {
		return nil
	}
	f := s.f
	s.f = nil
	return f.Close()
}

// removeIfFailed deletes the created file when its job carries an error.
func (s *fileSink) removeIfFailed(results []xmlproj.BatchResult) {
	if !s.created {
		return
	}
	for _, r := range results {
		if r.Name == s.name && r.Err != nil {
			os.Remove(s.path)
			return
		}
	}
}
