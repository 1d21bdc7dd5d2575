// Command xbench regenerates the paper's evaluation tables and figures
// (§6) at an arbitrary XMark scale, printing them in the paper's layout.
//
// Usage:
//
//	xbench -factor 0.05                 # Table 1 + Figures 4/5, all queries
//	xbench -factor 0.05 -q QM01,QP05    # a subset
//	xbench -baseline                    # comparison with path projection [14]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

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
	if err := fs.Parse(args); err != nil {
		return err
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
