// Command benchmark is the repository's benchmark: it builds the shipped
// binaries, generates seeded XMark inputs, verifies outputs, and runs
// six workloads through the process / HTTP boundary of xqrun, xmlprune
// and xmlprojd. See README.md for the workloads and metrics.
//
// One workload, as the benchmark driver runs it (last stdout line is
// the result object):
//
//	sh benchmark/run.sh --workload serve_cold --seed 7 --seconds 10 --trace 0
//
// All six workloads, every metric printed by name, results written as
// JSON; with --trace 1 the traced run (per-layer metrics, span file):
//
//	sh benchmark/run.sh
//	sh benchmark/run.sh --trace 1
//
// Development: -smoke (every workload on d1 for 2 s), -repeat N (N sets,
// spread checked against the bounds), -write-golden.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       int
	traceOut    string
	out         string
	repeat      int
	smoke       bool
	writeGolden bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all six, one after another)")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the timed window (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1: the traced run (per-layer metrics, spans); 0: the end-to-end run")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -workload: span file of the traced run (default .bench_build/trace-<workload>.json)")
	flag.StringVar(&o.out, "out", "", "results file (default, without -workload: .bench_build/results.json)")
	flag.IntVar(&o.repeat, "repeat", 0, "run N sets and check the spread of every end-to-end metric against its bound")
	flag.BoolVar(&o.smoke, "smoke", false, "development: every workload on d1, one set-up, 2 s")
	flag.BoolVar(&o.writeGolden, "write-golden", false, "record benchmark/golden.json from the verified outputs (default seed)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	m, err := loadManifest(root)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(m.RunSeconds)
		if o.smoke {
			o.seconds = 2
		}
	}
	names := workloadNames
	if o.workload != "" {
		names = []string{o.workload}
		if !slices.Contains(workloadNames, o.workload) {
			return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
		}
	}
	switch {
	case o.writeGolden:
		return writeGolden(root, o)
	case o.repeat > 0:
		return repeatSets(root, m, o, names)
	case o.workload == "":
		// One process per workload, as the driver runs them: a child's
		// ru_maxrss is never below its parent's own peak RSS, and the
		// first-call layer metrics want a process nothing has run in.
		var reports []*report
		for _, name := range names {
			rep, err := runChild(root, o, name)
			if err != nil {
				return err
			}
			reports = append(reports, rep)
		}
		if o.out == "" {
			o.out = filepath.Join(root, ".bench_build", "results.json")
		}
		return writeJSON(o.out, reports)
	}
	rep, err := runOne(root, m, o, o.workload)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	rep.print(os.Stdout)
	if o.out != "" {
		if err := writeJSON(o.out, rep); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line)) // the driver reads the last line
	return nil
}

// runChild runs one workload in a fresh process of this program, which
// prints its report, and returns the report it wrote.
func runChild(root string, o options, workload string) (*report, error) {
	out := filepath.Join(root, ".bench_build", fmt.Sprintf("report-%d.json", os.Getpid()))
	defer os.Remove(out)
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace), "-out", out,
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		return nil, err
	}
	rep := new(report)
	return rep, json.Unmarshal(b, rep)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// report is one run of one workload.
type report struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Trace    bool        `json:"trace"`
	Seconds  float64     `json:"window_seconds"`
	Classes  []classStat `json:"classes"`
	Result   resultLine  `json:"result"`
	FirstErr string      `json:"first_error,omitempty"`
	// LayerSelfMS is the mean self time per layer of one replayed op
	// (traced run only).
	LayerSelfMS map[string]float64 `json:"layer_self_ms,omitempty"`
	TraceFile   string             `json:"trace_file,omitempty"`
}

// runOne sets up, verifies and measures one workload. A verification
// failure is an error: nothing is timed on wrong outputs.
func runOne(root string, m *manifest, o options, workload string) (*report, error) {
	e, err := newEnv(root, o.seed)
	if err != nil {
		return nil, err
	}
	defer e.close()
	r := newRunner(e, workload, o.smoke)
	defer r.close()

	var extra []string
	if o.trace == 1 {
		small, eval, big := suiteDocs(o.smoke)
		extra = slices.Compact([]string{small, eval, big})
	}
	parts, err := r.setup(o.smoke, extra)
	if err != nil {
		return nil, err
	}
	if err := r.verify(); err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	rep := &report{Workload: workload, Seed: o.seed, Trace: o.trace == 1}
	values := map[string]float64{}
	var w window
	decls := m.EndToEnd
	if o.trace == 1 {
		decls = m.PerLayer
		if w, err = r.traced(rep, o, parts, values); err != nil {
			return nil, err
		}
	} else {
		if w, err = r.timed(o.seconds); err != nil {
			return nil, err
		}
		var rss float64
		rep.Classes, values["op_ms"], _, rss = summarise(r.classes, w.samples)
		if r.serves() {
			rss = w.daemonRSSMB
		}
		values["rss_mb"] = rss
		values["mb_per_s"] = inputMB(w) / busySeconds(r, w)
		values["setup_s"] = parts.totalS
	}
	rep.Seconds = w.seconds
	if w.firstErr != nil {
		rep.FirstErr = w.firstErr.Error()
	}
	metrics, err := pick(decls, values)
	if err != nil {
		return nil, err
	}
	rep.Result = resultLine{Correct: w.failed == 0, Attempted: w.attempted, Failed: w.failed, Metrics: metrics}
	return rep, nil
}

func inputMB(w window) float64 {
	var n int64
	for _, s := range w.samples {
		n += s.bytes
	}
	return float64(n) / 1e6
}

// busySeconds is the time mb_per_s divides by. The serve_* clients run
// side by side, so there it is the window's wall time. The process
// workloads run one op after another and the harness hashes each op's
// output file in between (20 MB for cli_large's class full): there it is
// the sum of the op durations, which leaves the harness out.
func busySeconds(r *runner, w window) float64 {
	if r.serves() {
		return w.seconds
	}
	var ms float64
	for _, s := range w.samples {
		ms += s.ms
	}
	return ms / 1e3
}

// suiteDocs names the documents the layer suite reads: the small one
// (cache and batch metrics), the evaluator's, and the throughput one.
func suiteDocs(smoke bool) (small, eval, big string) {
	if smoke {
		return "d1", "d1", "d1"
	}
	return "d1", "d3", "d10"
}

// traced is the traced run of one workload: the layer suite, a short
// end-to-end pass (for the op time the replay is reconciled with, and
// the daemon's counters), and the replay of the workload's ops.
func (r *runner) traced(rep *report, o options, parts setupParts, values map[string]float64) (window, error) {
	t := newTracer(r.workload)
	reps, rreps := 5, replayReps
	if o.smoke {
		reps, rreps = 2, 1
	}
	// The suite goes first: its first-call and allocation metrics want a
	// process in which nothing else has run yet.
	layers, err := runLayerSuite(t, r.e, reps, o.smoke)
	if err != nil {
		return window{}, fmt.Errorf("layer suite: %w", err)
	}
	for k, v := range layers {
		values[k] = v
	}

	var before map[string]float64
	if r.serves() {
		if before, err = r.d.counters(); err != nil {
			return window{}, err
		}
	}
	w, err := r.timed(o.seconds / 5)
	if err != nil {
		return window{}, err
	}
	rep.Classes, _, values["trace.op_p90_ms"], _ = summarise(r.classes, w.samples)
	values["server.hit_ratio"], values["server.rejected_429"], values["server.peak_rss_mb"] = 0, 0, 0
	if r.serves() {
		after, err := r.d.counters()
		if err != nil {
			return window{}, err
		}
		delta := func(k string) float64 { return after[k] - before[k] }
		if n := delta("cache_hits") + delta("cache_304") + delta("cache_misses"); n > 0 {
			values["server.hit_ratio"] = (delta("cache_hits") + delta("cache_304")) / n
		}
		values["server.rejected_429"] = delta("rejected_concurrency")
		values["server.peak_rss_mb"] = r.d.peakRSSMB()
	}
	// Like server.* above, daemon_ready_ms is 0 in the workloads without a daemon.
	values["setup.build_s"], values["setup.generate_s"], values["setup.daemon_ready_ms"] =
		parts.buildS, parts.generateS, parts.daemonReadyMS

	values["answer.speedup_gmean"], values["answer.mem_ratio_gmean"], values["answer.size_pct_gmean"] = 0, 0, 0
	if len(r.table1) > 0 {
		var cols [3][]float64
		for _, row := range r.table1 {
			for i, v := range row {
				cols[i] = append(cols[i], v)
			}
		}
		values["answer.speedup_gmean"], values["answer.mem_ratio_gmean"], values["answer.size_pct_gmean"] =
			geomean(cols[0]), geomean(cols[1]), geomean(cols[2])
	}

	tracedMS, err := r.replay(t, rreps)
	if err != nil {
		return window{}, err
	}
	if r.workload == "cli_large" {
		if err := r.cliAside(t); err != nil {
			return window{}, err
		}
	}
	// Both sides of the reconciliation are over the replayed classes.
	var opMedians, tracedMedians []float64
	for i, c := range r.classes {
		// A child's ru_maxrss is at least the harness's own peak (README),
		// which the layer suite has inflated: not a number to show.
		rep.Classes[i].RSSMB = 0
		if ms, ok := tracedMS[c]; ok {
			rep.Classes[i].TracedMS = ms
			opMedians = append(opMedians, rep.Classes[i].MedianMS)
			tracedMedians = append(tracedMedians, ms)
		}
	}
	values["trace.op_ms"] = geomean(opMedians)
	values["trace.traced_ms"] = geomean(tracedMedians)
	values["trace.unaccounted_ms"] = values["trace.op_ms"] - values["trace.traced_ms"]

	var replayed []span
	for _, s := range t.spans {
		if s.Class != "layers" && s.Class != "aside" {
			replayed = append(replayed, s)
		}
	}
	rep.LayerSelfMS = layerSelfMS(replayed)
	rep.TraceFile = o.traceOut
	if rep.TraceFile == "" {
		rep.TraceFile = filepath.Join(r.e.root, ".bench_build", "trace-"+r.workload+".json")
	}
	return w, writeTrace(rep.TraceFile, t.spans)
}

// print writes the report for a person: classes, then every metric by
// name with its unit.
func (rep *report) print(f *os.File) {
	mode := "end-to-end"
	if rep.Trace {
		mode = "traced"
	}
	fmt.Fprintf(f, "== %s (%s, seed %d): %d ops attempted, %d failed, window %.2f s\n",
		rep.Workload, mode, rep.Seed, rep.Result.Attempted, rep.Result.Failed, rep.Seconds)
	if rep.FirstErr != "" {
		fmt.Fprintf(f, "   first failure: %s\n", rep.FirstErr)
	}
	for _, c := range rep.Classes {
		fmt.Fprintf(f, "   class %-14s n=%-5d median %9.3f ms  p90 %9.3f ms", c.Class, c.N, c.MedianMS, c.P90MS)
		if c.RSSMB > 0 {
			fmt.Fprintf(f, "  rss %7.1f MB", c.RSSMB)
		}
		if c.TracedMS > 0 {
			fmt.Fprintf(f, "  traced %9.3f ms", c.TracedMS)
		}
		fmt.Fprintln(f)
	}
	names := make([]string, 0, len(rep.Result.Metrics))
	for name := range rep.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rep.Result.Metrics[name]
		fmt.Fprintf(f, "   %-32s %14.4f %s\n", name, v.Value, v.Unit)
	}
	if len(rep.LayerSelfMS) > 0 {
		layers := make([]string, 0, len(rep.LayerSelfMS))
		for l := range rep.LayerSelfMS {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		fmt.Fprintf(f, "   self time per replayed op, by layer:")
		for _, l := range layers {
			fmt.Fprintf(f, " %s %.3f ms;", l, rep.LayerSelfMS[l])
		}
		fmt.Fprintf(f, "\n   spans: %s\n", rep.TraceFile)
	}
}

// repeatSets runs n sets of end-to-end runs of the same code and
// compares, per workload and metric, the spread between the sets with
// the metric's bound. Any failed op fails the check too.
func repeatSets(root string, m *manifest, o options, names []string) error {
	o.trace = 0
	sets := make(map[string]map[string][]float64) // workload -> metric -> value per set
	failed := 0
	for i := 0; i < o.repeat; i++ {
		for _, name := range names {
			rep, err := runChild(root, o, name)
			if err != nil {
				return fmt.Errorf("set %d: %w", i+1, err)
			}
			failed += rep.Result.Failed
			if sets[name] == nil {
				sets[name] = map[string][]float64{}
			}
			for metric, v := range rep.Result.Metrics {
				sets[name][metric] = append(sets[name][metric], v.Value)
			}
		}
	}
	over := 0
	for _, name := range names {
		for _, d := range m.EndToEnd {
			spread := relSpread(sets[name][d.Name])
			verdict := "ok"
			if spread > d.Bound {
				verdict = "OVER"
				over++
			}
			fmt.Printf("%-17s %-12s spread %6.2f %%  bound %5.1f %%  %s  %v\n",
				name, d.Name, 100*spread, 100*d.Bound, verdict, sets[name][d.Name])
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	if over > 0 {
		return fmt.Errorf("%d metric(s) spread wider than their bound", over)
	}
	return nil
}

// writeGolden verifies every workload, full size and smoke size, on the
// default seed and records the verified outputs.
func writeGolden(root string, o options) error {
	if o.seed != defaultSeed {
		return fmt.Errorf("-write-golden records seed %d only", defaultSeed)
	}
	all := map[string]outputID{}
	for _, smoke := range []bool{false, true} {
		for _, name := range workloadNames {
			e, err := newEnv(root, defaultSeed)
			if err != nil {
				return err
			}
			e.golden = map[string]outputID{} // record, do not compare
			r := newRunner(e, name, smoke)
			_, err = r.setup(true, nil)
			if err == nil {
				err = r.verify()
			}
			r.close()
			e.close()
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			for k, v := range r.seen {
				all[k] = v
			}
		}
	}
	return writeJSON(filepath.Join(root, "benchmark", "golden.json"), all)
}
