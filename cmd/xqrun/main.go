// Command xqrun evaluates an XPath or XQuery query over a document with
// the repository's in-memory engine, optionally pruning the document
// first, and reports time and memory.
//
// Usage:
//
//	xqrun -q '//person[homepage]/name' -in auction.xml
//	xqrun -q 'for $i in /site/regions/australia/item return $i/name' \
//	      -in auction.xml -dtd auction.dtd -prune
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"xmlproj"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "xqrun:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("xqrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	qsrc := fs.String("q", "", "query (XPath or XQuery; required)")
	in := fs.String("in", "", "input document (required)")
	dtdPath := fs.String("dtd", "", "DTD file (required with -prune)")
	root := fs.String("root", "", "root element (default: first declared)")
	pruneFirst := fs.Bool("prune", false, "prune with the inferred projector before evaluating")
	quiet := fs.Bool("quiet", false, "do not print the result, only statistics (the result is still serialised: the flag suppresses printing, not work)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *qsrc == "" || *in == "" {
		fs.Usage()
		return fmt.Errorf("-q and -in are required")
	}
	q, err := xmlproj.Compile(*qsrc)
	if err != nil {
		return err
	}

	input, err := os.ReadFile(*in)
	if err != nil {
		return err
	}

	if *pruneFirst {
		if *dtdPath == "" {
			return fmt.Errorf("-prune requires -dtd")
		}
		start := time.Now()
		d, err := xmlproj.ParseSchemaFile(*dtdPath, *root)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "xqrun: parsed the schema in %s\n", time.Since(start))
		start = time.Now()
		p, err := d.Infer(xmlproj.Materialized, q)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "xqrun: inferred the projector in %s\n", time.Since(start))
		if p.KeepsAll() {
			// π is every name a valid document can contain: pruning would
			// copy the input, so load what is already in hand.
			fmt.Fprintf(stderr, "xqrun: pruned %d -> %d bytes in 0s: not pruned, the projector keeps every name the schema can produce\n",
				len(input), len(input))
		} else {
			// Prune the bytes ReadFile returned in place and render the
			// result once, into the buffer the loader reads.
			start = time.Now()
			res, err := p.PruneGather(input, xmlproj.StreamOptions{})
			if err != nil {
				return err
			}
			pruned := res.Bytes()
			res.Close()
			fmt.Fprintf(stderr, "xqrun: pruned %d -> %d bytes in %s\n",
				len(input), len(pruned), time.Since(start))
			input = pruned
		}
	}

	// The paper's last two phases, timed apart; the memory figure covers
	// both, as its main-memory measurements do.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	doc, err := xmlproj.ParseXMLBytes(input)
	if err != nil {
		return err
	}
	loaded := time.Since(start)
	start = time.Now()
	res, err := q.Evaluate(doc)
	if err != nil {
		return err
	}
	evaluated := time.Since(start)
	runtime.ReadMemStats(&after)

	if !*quiet {
		fmt.Fprintln(stdout, res.Serialized)
	}
	fmt.Fprintf(stderr, "xqrun: loaded %d bytes in %s\n", len(input), loaded)
	fmt.Fprintf(stderr, "xqrun: evaluated to %d item(s), %d bytes serialised, in %s; load and evaluation allocated %.1f MB\n",
		res.Count, len(res.Serialized), evaluated, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	return nil
}
