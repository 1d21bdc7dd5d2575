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
// of pruning; -validate fuses DTD validation with the prune;
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
	validateFlag := fs.Bool("validate", false, "validate against the DTD while pruning, and check the whole document for well-formedness; without it the subtrees the projector discards are only checked for balanced tags")
	materialize := fs.Bool("materialize", true, "keep full subtrees of result nodes")
	jobs := fs.Int("jobs", 0, "concurrent pruning workers for multiple inputs (default GOMAXPROCS)")
	keepGoing := fs.Bool("keep-going", false, "with multiple inputs, prune the rest after a document fails")
	intra := fs.Int("intra", 0, "intra-document parallel pruning workers; >0 forces the parallel pruner with that many; 0 = auto, which goes concurrent only with -validate, for documents of at least 4 MiB (pipes: 1 MiB or unsized) and a worker budget (GOMAXPROCS / -jobs) of at least 4")
	var queries, ins, projSpecs stringList
	fs.Var(&queries, "q", "query (XPath or XQuery); repeatable")
	fs.Var(&ins, "in", "input document or glob pattern; repeatable (default stdin)")
	fs.Var(&projSpecs, "proj", "named projection name=query;query — repeatable: one shared scan prunes the input against every -proj at once, writing <out>/<name>.xml per projection")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if len(projSpecs) > 0 {
		if len(queries) > 0 || *loadProj != "" {
			return fmt.Errorf("-proj does not combine with -q or -load-projector")
		}
		if *dtdPath == "" {
			fs.Usage()
			return fmt.Errorf("-dtd is required")
		}
		return runMulti(projSpecs, ins, *dtdPath, *root, *out, *materialize, *validateFlag, *show, stdin, stdout, stderr)
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
		Workers:      *jobs,
		Validate:     *validateFlag,
		FailFast:     !*keepGoing,
		Parallel:     *intra > 0,
		IntraWorkers: *intra,
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
			parNote := ""
			if r.Parallel.Workers > 0 && !r.Parallel.Fallback {
				parNote = fmt.Sprintf("; parallel %d workers, %d fragments (index %s, prune %s, stitch %s)",
					r.Parallel.Workers, r.Parallel.Tasks,
					r.Parallel.IndexTime.Round(time.Microsecond),
					r.Parallel.PruneTime.Round(time.Microsecond),
					r.Parallel.StitchTime.Round(time.Microsecond))
			}
			if r.Pipeline.Workers > 0 && !r.Pipeline.Fallback {
				parNote = fmt.Sprintf("; pipelined %d workers, %d windows, %d fragments, peak %d window bytes (read %s, index %s, prune %s, emit %s)",
					r.Pipeline.Workers, r.Pipeline.Windows, r.Pipeline.Tasks, r.Pipeline.PeakWindowBytes,
					r.Pipeline.ReadTime.Round(time.Microsecond),
					r.Pipeline.IndexTime.Round(time.Microsecond),
					r.Pipeline.PruneTime.Round(time.Microsecond),
					r.Pipeline.EmitTime.Round(time.Microsecond))
			}
			fmt.Fprintf(stderr,
				"xmlprune: %spruned in %s; elements %d -> %d; %d -> %d bytes (%.1f MB/s); depth %d%s\n",
				inferNote, elapsed, st.ElementsIn, st.ElementsOut,
				r.BytesIn, st.BytesOut, r.Throughput(), st.MaxDepth, parNote)
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

// maxMultiStdinBytes bounds how much of stdin the -proj shared scan
// will buffer (it needs the whole document in memory): 1 GiB, matching
// the serving layer's default body limit. A variable so tests can
// exercise the rejection without a gigabyte pipe.
var maxMultiStdinBytes = int64(1 << 30)

// runMulti prunes one document against every -proj projection in a
// single shared scan: the projector set is fused into one decision
// table and the input is tokenized once, however many projections ride
// the pass. Each projection's output is byte-identical to a serial
// prune with it alone.
func runMulti(specs, ins stringList, dtdPath, root, out string, materialize, validate, show bool, stdin io.Reader, stdout, stderr io.Writer) error {
	d, err := xmlproj.ParseSchemaFile(dtdPath, root)
	if err != nil {
		return err
	}
	mode := xmlproj.NodesOnly
	if materialize {
		mode = xmlproj.Materialized
	}
	names := make([]string, 0, len(specs))
	projectors := make([]*xmlproj.Projector, 0, len(specs))
	seen := make(map[string]bool)
	start := time.Now()
	for _, spec := range specs {
		name, qsrc, ok := strings.Cut(spec, "=")
		if !ok || name == "" || qsrc == "" {
			return fmt.Errorf("-proj %q: want name=query;query", spec)
		}
		if seen[name] {
			return fmt.Errorf("-proj name %q given twice", name)
		}
		seen[name] = true
		var compiled []*xmlproj.Query
		for _, src := range strings.Split(qsrc, ";") {
			if src = strings.TrimSpace(src); src == "" {
				continue
			}
			q, err := xmlproj.Compile(src)
			if err != nil {
				return fmt.Errorf("-proj %s: query %q: %w", name, src, err)
			}
			compiled = append(compiled, q)
		}
		p, err := d.Infer(mode, compiled...)
		if err != nil {
			return fmt.Errorf("-proj %s: %w", name, err)
		}
		names = append(names, name)
		projectors = append(projectors, p)
	}
	inferTime := time.Since(start)

	if show {
		for j, p := range projectors {
			fmt.Fprintf(stdout, "%s: projector (%d names, keep ratio %.1f%%):\n",
				names[j], len(p.Names()), 100*p.KeepRatio())
			for _, n := range p.Names() {
				fmt.Fprintln(stdout, " ", n)
			}
		}
		return nil
	}

	inputs, err := expandInputs(ins)
	if err != nil {
		return err
	}
	if len(inputs) > 1 {
		return fmt.Errorf("-proj prunes one document against many projections; got %d inputs", len(inputs))
	}

	// The shared scan tokenizes in place, so the input is materialised
	// once: mapped when it is a regular file, read otherwise.
	var data []byte
	var mapped *mmapio.Data
	inName := "stdin"
	if len(inputs) == 1 {
		inName = inputs[0]
		if m, merr := mmapio.Open(inputs[0]); merr == nil {
			mapped = m
			data = m.Bytes()
		} else if data, err = os.ReadFile(inputs[0]); err != nil {
			return err
		}
	} else {
		// Stdin has no size to check up front, and the shared scan must
		// buffer it whole — bound the read so a runaway pipe cannot take
		// the process's memory hostage.
		if data, err = io.ReadAll(io.LimitReader(stdin, maxMultiStdinBytes+1)); err != nil {
			return err
		}
		if int64(len(data)) > maxMultiStdinBytes {
			return fmt.Errorf("stdin input exceeds %d bytes; the shared multi-projection scan buffers its input whole — write it to a file and pass -in", maxMultiStdinBytes)
		}
	}
	if mapped != nil {
		defer mapped.Close()
	}

	// Resolve destinations: several projections need -out as a directory
	// (one <name>.xml each); a single one behaves like a plain prune.
	sinkPath := make([]string, len(specs))
	if len(specs) > 1 || isDir(out) {
		if out == "" {
			return fmt.Errorf("several -proj outputs need -out naming a directory")
		}
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		for j, name := range names {
			sinkPath[j] = filepath.Join(out, name+".xml")
		}
	} else {
		sinkPath[0] = out // possibly "": stdout
	}

	start = time.Now()
	results, errs := xmlproj.PruneMultiGather(projectors, data, xmlproj.StreamOptions{Validate: validate})
	elapsed := time.Since(start)

	var firstErr error
	var bytesOut int64
	for j := range specs {
		if errs[j] != nil {
			fmt.Fprintf(stderr, "xmlprune: %s: %v\n", names[j], errs[j])
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", names[j], errs[j])
			}
			continue
		}
		res := results[j]
		werr := func() error {
			if sinkPath[j] == "" {
				_, werr := res.WriteTo(stdout)
				return werr
			}
			return writeFile(sinkPath[j], res)
		}()
		st := res.Stats
		res.Close()
		if werr != nil {
			fmt.Fprintf(stderr, "xmlprune: %s: %v\n", names[j], werr)
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", names[j], werr)
			}
			continue
		}
		bytesOut += st.BytesOut
		fmt.Fprintf(stderr, "xmlprune: %s: elements %d -> %d; %d bytes out\n",
			names[j], st.ElementsIn, st.ElementsOut, st.BytesOut)
	}
	fmt.Fprintf(stderr,
		"xmlprune: %d projections inferred in %s; shared scan over %s (%d bytes) in %s; %d bytes out total\n",
		len(specs), inferTime, inName, len(data), elapsed, bytesOut)
	return firstErr
}

// writeFile renders src into a new file at path. Close errors surface; a
// file that did not get all of src is removed.
func writeFile(path string, src io.WriterTo) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = writeBuffered(f, src)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// writeBuffered renders src to w through a 64 KiB buffer: a gather
// result is thousands of small segments, one Write each, and an *os.File
// takes a write(2) per Write.
func writeBuffered(w io.Writer, src io.WriterTo) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := src.WriteTo(bw); err != nil {
		return err
	}
	return bw.Flush()
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

// InputSize implements prune.Sizer via stat, without opening the file.
func (s *fileSource) InputSize() (int64, bool) {
	fi, err := os.Stat(s.path)
	if err != nil || !fi.Mode().IsRegular() {
		return 0, false
	}
	return fi.Size(), true
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
