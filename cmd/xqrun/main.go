// Command xqrun evaluates an XPath or XQuery query over a document with
// the repository's in-memory engine, optionally pruning the document
// first, and reports time and memory.
//
// With -prune the document is pruned as it is read from the file and
// loaded in the same pass (one stderr line, "pruned <in> -> <out> bytes
// and loaded them in <t>"), so a single token — a tag, a text run —
// longer than 8 MiB fails the run; without it the file is mapped into
// memory (internal/mmapio: read whole when it is short or not a regular
// file) and loaded, with no bound on a token: a copy of the file would
// write a fresh page for every 4 KiB of it, and the mapping reads the
// page cache where it is.
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
	"xmlproj/internal/mmapio"
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
	pruneFirst := fs.Bool("prune", false, "prune with the inferred projector while loading (the file is streamed: a single token over 8 MiB fails)")
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

	// The memory figure covers the load and the evaluation, as the paper's
	// main-memory measurements do; with -prune the load is the prune.
	var before runtime.MemStats
	keepsAll := false
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
		if keepsAll = p.KeepsAll(); !keepsAll {
			// Prune the file as it is read, into the document's table: the
			// input is never resident, and what is kept is neither rendered
			// nor tokenised again.
			f, err := os.Open(*in)
			if err != nil {
				return err
			}
			defer f.Close()
			src := &countingReader{r: f}
			runtime.ReadMemStats(&before)
			start = time.Now()
			doc, st, err := p.LoadProjected(src, xmlproj.StreamOptions{})
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "xqrun: pruned %d -> %d bytes and loaded them in %s\n", src.n, st.BytesOut, time.Since(start))
			return evaluate(q, doc, &before, *quiet, stdout, stderr)
		}
	}

	src, err := mmapio.Open(*in)
	if err != nil {
		return err
	}
	defer src.Close()
	input := src.Bytes()
	if keepsAll {
		// π is every name a valid document can contain: pruning would copy
		// the input, so load what is already in hand.
		fmt.Fprintf(stderr, "xqrun: pruned %d -> %d bytes in 0s: not pruned, the projector keeps every name the schema can produce\n",
			len(input), len(input))
	}
	runtime.ReadMemStats(&before)
	start := time.Now()
	doc, err := xmlproj.ParseXMLBytes(input)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "xqrun: loaded %d bytes in %s\n", len(input), time.Since(start))
	// The document keeps no reference to its input.
	src.Close()
	return evaluate(q, doc, &before, *quiet, stdout, stderr)
}

// evaluate is the paper's last phase: it evaluates q on doc, prints the
// result unless quiet, and reports the time and what the load and the
// evaluation allocated since before.
func evaluate(q *xmlproj.Query, doc *xmlproj.Document, before *runtime.MemStats, quiet bool, stdout, stderr io.Writer) error {
	start := time.Now()
	res, err := q.Evaluate(doc)
	if err != nil {
		return err
	}
	evaluated := time.Since(start)
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if !quiet {
		fmt.Fprintln(stdout, res.Serialized)
	}
	fmt.Fprintf(stderr, "xqrun: evaluated to %d item(s), %d bytes serialised, in %s; load and evaluation allocated %.1f MB\n",
		res.Count, len(res.Serialized), evaluated, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	return nil
}

// countingReader counts the bytes read through it: the pruned line's
// input size.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
