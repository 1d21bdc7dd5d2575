// Command xbench regenerates the paper's evaluation tables and figures
// (§6) at an arbitrary XMark scale, printing them in the paper's layout.
//
// Usage:
//
//	xbench -factor 0.05                 # Table 1 + Figures 4/5, all queries
//	xbench -factor 0.05 -q QM01,QP05    # a subset
//	xbench -baseline                    # comparison with path projection [14]
//	xbench -streamprune                 # pruner micro-benchmark → BENCH_streamprune.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"xmlproj/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "xbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("xbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	factor := fs.Float64("factor", 0.01, "XMark scale factor (1.0 ≈ 100 MB)")
	seed := fs.Int64("seed", 42, "generator seed")
	qsel := fs.String("q", "", "comma-separated query IDs (default: all)")
	baseline := fs.Bool("baseline", false, "also run the path-projection baseline comparison")
	streamprune := fs.Bool("streamprune", false, "benchmark the streaming pruner engines and write a JSON report")
	spOut := fs.String("o", "BENCH_streamprune.json", "output path for the -streamprune report")
	intra := fs.Int("intra", 0, "intra-document workers for the -streamprune parallel cases (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *streamprune {
		return runStreamPrune(*factor, *seed, *spOut, bench.StreamPruneOptions{IntraWorkers: *intra}, stdout, stderr)
	}

	queries := bench.AllQueries()
	if *qsel != "" {
		var sel []bench.QuerySpec
		for _, id := range strings.Split(*qsel, ",") {
			q, ok := bench.QueryByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown query %q", id)
			}
			sel = append(sel, q)
		}
		queries = sel
	}

	fmt.Fprintf(stderr, "xbench: generating XMark document at factor %g…\n", *factor)
	w := bench.NewWorkload(*factor, *seed)
	fmt.Fprintf(stderr, "xbench: document is %d bytes, %d nodes\n",
		len(w.DocBytes), w.Doc.NumNodes())

	var rows []bench.Row
	for _, q := range queries {
		fmt.Fprintf(stderr, "xbench: %s…\n", q.ID)
		row, err := bench.RunQuery(w, q)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	bench.PrintTable1(stdout, *factor, rows)
	fmt.Fprintln(stdout)
	bench.PrintFigure4(stdout, rows)
	fmt.Fprintln(stdout)
	bench.PrintFigure5(stdout, rows)

	if *baseline {
		fmt.Fprintln(stdout)
		var comps []bench.BaselineComparison
		for _, q := range queries {
			c, err := bench.RunBaseline(w, q)
			if err != nil {
				return err
			}
			comps = append(comps, c)
		}
		bench.PrintBaseline(stdout, comps)
	}
	return nil
}

// runStreamPrune benchmarks prune.Stream's engines (serial scanner,
// decoder reference, intra-document parallel pruner) and writes the
// JSON report consumed by the CI benchmark smoke job.
func runStreamPrune(factor float64, seed int64, out string, opts bench.StreamPruneOptions, stdout, stderr io.Writer) error {
	fmt.Fprintf(stderr, "xbench: benchmarking streaming pruner at factor %g…\n", factor)
	rep, err := bench.RunStreamPrune(factor, seed, opts)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	// Write-then-rename so a crash or full disk mid-write never leaves a
	// truncated report where CI expects a valid one.
	tmp, err := os.CreateTemp(filepath.Dir(out), filepath.Base(out)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), out); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	fmt.Fprintf(stdout, "stream prune benchmark (XMark factor %g, %d bytes)\n", rep.Factor, rep.DocBytes)
	fmt.Fprintf(stdout, "%-10s %-16s %-9s %12s %10s %12s %14s\n", "projector", "engine", "validate", "ns/op", "MB/s", "allocs/op", "copied B/op")
	for _, c := range rep.Cases {
		fmt.Fprintf(stdout, "%-10s %-16s %-9v %12d %10.2f %12d %14d\n", c.Projector, c.Engine, c.Validate, c.NsPerOp, c.MBPerSec, c.AllocsPerOp, c.CopiedBytesPerOp)
	}
	fmt.Fprintf(stdout, "low-selectivity: scanner is %.2fx faster, %.0fx fewer allocations\n",
		rep.SpeedupLow, rep.AllocRatioLow)
	fmt.Fprintf(stdout, "validated: scanner is %.2fx faster than decoder; validation overhead %.2fx (low), %.2fx (mid)\n",
		rep.SpeedupLowValidated, rep.ValidateOverheadLow, rep.ValidateOverheadMid)
	fmt.Fprintf(stdout, "parallel: %.2fx vs serial scanner on full, %.2fx on low (GOMAXPROCS=%d, NumCPU=%d)\n",
		rep.SpeedupParallel, rep.SpeedupParallelLow, rep.GOMAXPROCS, rep.NumCPU)
	fmt.Fprintf(stdout, "gather: %.1fx fewer allocated bytes than the copying scanner on low; %.1f%% of output bytes copied\n",
		rep.GatherAllocRatioLow, 100*rep.GatherCopiedFracLow)
	fmt.Fprintf(stdout, "multi: shared scan over 4 projectors is %.2fx faster than 4 serial gathers\n",
		rep.SpeedupMultiX4)
	fmt.Fprintf(stdout, "cached: warm result-cache hit is %.1fx cheaper than a fresh scanner prune on low (hit %s, digest %s)\n",
		rep.SpeedupCachedLow, time.Duration(rep.CacheHitNs), time.Duration(rep.DigestNs))
	if rep.SpeedupSkippedSingleCPU {
		fmt.Fprintln(stdout, "pipelined: single-CPU host; speedups omitted from the report (output parity and memory bound still asserted)")
	} else {
		fmt.Fprintf(stdout, "pipelined: %.2fx vs serial scanner on full (unsized input), %.2fx on low\n",
			rep.SpeedupPipelined, rep.SpeedupPipelinedLow)
	}
	fmt.Fprintf(stdout, "pipelined: first output byte after %s (scanner %s, parallel %s); peak window bytes %d of %d (ring %d x window %d)\n",
		time.Duration(rep.TTFBPipelinedNs), time.Duration(rep.TTFBScannerNs), time.Duration(rep.TTFBParallelNs),
		rep.PeakWindowBytes, int64(rep.PipelineRingDepth)*int64(rep.PipelineWindowBytes),
		rep.PipelineRingDepth, rep.PipelineWindowBytes)
	if rep.NumCPU == 1 {
		fmt.Fprintln(stdout, "parallel: single-CPU host; speedup not meaningful (output parity still asserted)")
	}
	fmt.Fprintf(stderr, "xbench: wrote %s\n", out)
	return nil
}
