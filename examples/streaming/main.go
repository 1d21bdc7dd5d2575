// Streaming: prune a large document in one pass with constant memory,
// fused with DTD validation (§6: pruning "can be executed during parsing
// and/or validation and brings no overhead").
//
// The example synthesises a log-like document of configurable size on the
// fly, so the pruner's input never exists in memory at once, and streams
// it through PruneStreamOpts with Validate set.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"time"

	"xmlproj"
)

const logDTD = `
<!ELEMENT log (entry*)>
<!ELEMENT entry (when, level, message, detail?)>
<!ATTLIST entry host CDATA #REQUIRED>
<!ELEMENT when (#PCDATA)>
<!ELEMENT level (#PCDATA)>
<!ELEMENT message (#PCDATA)>
<!ELEMENT detail (frame*)>
<!ELEMENT frame (#PCDATA)>
`

// logWriter synthesises <log> with n entries into w.
func writeLog(w io.Writer, n int) error {
	if _, err := io.WriteString(w, "<log>"); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		level := "info"
		detail := ""
		if i%17 == 0 {
			level = "error"
			detail = "<detail><frame>main.go:42</frame><frame>loop.go:7</frame><frame>sched.go:1203</frame></detail>"
		}
		if _, err := fmt.Fprintf(w,
			`<entry host="h%d"><when>2026-07-06T12:%02d:%02d</when><level>%s</level><message>unit %d reported a condition that operators may want to look at eventually</message>%s</entry>`,
			i%32, (i/60)%60, i%60, level, i, detail); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "</log>")
	return err
}

func main() {
	entries := flag.Int("entries", 200000, "number of log entries to synthesise")
	flag.Parse()

	dtd, err := xmlproj.ParseDTDString(logDTD, "log")
	if err != nil {
		log.Fatal(err)
	}
	// Keep only error entries' timestamps and stack frames.
	q, err := xmlproj.CompileXPath(`//entry[level = "error"]/detail/frame`)
	if err != nil {
		log.Fatal(err)
	}
	p, err := dtd.Infer(xmlproj.Materialized, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("projector:", p)

	// Producer goroutine -> pruner, no full document ever in memory.
	pr, pw := io.Pipe()
	go func() {
		pw.CloseWithError(writeLog(pw, *entries))
	}()

	counter := &countWriter{}
	start := time.Now()
	stats, err := p.PruneStreamOpts(counter, pr, xmlproj.StreamOptions{Validate: true})
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("pruned %d elements to %d in %s\n", stats.ElementsIn, stats.ElementsOut, elapsed)
	fmt.Printf("output: %d bytes; max open-element depth: %d (constant-memory pass)\n",
		counter.n, stats.MaxDepth)
	fmt.Printf("throughput: %.2f M elements/s\n",
		float64(stats.ElementsIn)/elapsed.Seconds()/1e6)
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
