package main

import (
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A run sets up at least setupReps times, and goes on until
// setupBudget is spent or setupMaxReps is reached; setup_s is the
// median. A set-up is 35-300 ms of process spawns and file writes: with
// nine of them the median of the shortest (answer_*, 35 ms) still moved
// 7-11 % from run to run.
const (
	setupReps    = 9
	setupMaxReps = 40
	setupBudget  = 1500 * time.Millisecond
)

// runner holds one workload's run: its inputs, the daemon if it has
// one, and what verification learned about the correct outputs.
type runner struct {
	e        *env
	workload string
	smoke    bool
	clients  int // closed-loop connections of the serve_* workloads
	d        *daemon

	classes []string
	expect  map[string]outputID   // class -> bytes a timed op must produce
	counts  map[string]string     // answer_*: class -> item count xqrun must report
	seen    map[string]outputID   // golden keys verified in this run
	table1  map[string][3]float64 // answer_*: class -> speed-up, memory ratio, size %
	hot     []hotBody             // serve_warm: the cached bodies

	verified map[string]outputID // verifyPrune results by document x projection
}

// hotBody is one member of serve_warm's hot set with the validators its
// first reply carried.
type hotBody struct {
	class, etag, digest string
}

func newRunner(e *env, workload string, smoke bool) *runner {
	return &runner{
		e: e, workload: workload, smoke: smoke, clients: max(1, runtime.NumCPU()/2),
		expect: map[string]outputID{}, counts: map[string]string{},
		seen: map[string]outputID{}, table1: map[string][3]float64{}, verified: map[string]outputID{},
	}
}

func (r *runner) serves() bool { return strings.HasPrefix(r.workload, "serve_") }

// docName maps a workload's document to the one actually used: -smoke
// runs everything on d1.
func (r *runner) docName(d string) string {
	if r.smoke {
		return "d1"
	}
	return d
}

// docs lists the documents the workload needs.
func (r *runner) docs() []string {
	switch {
	case strings.HasPrefix(r.workload, "answer_"):
		return []string{r.docName("d3")}
	case r.workload == "cli_large":
		return []string{r.docName("d30")}
	case r.smoke:
		return []string{"d1"}
	}
	return []string{"d1", "d10"}
}

// setupParts is what set-up cost: the one build, and the median of each
// part of the repeated set-ups.
type setupParts struct {
	totalS, buildS, generateS, daemonReadyMS float64
}

// setup builds the commands once, then repeatedly (see setupBudget;
// once: a single time, for -smoke and -write-golden) generates the
// workload's inputs and brings the daemon up, and reports the median
// times. setup_s is generation plus daemon readiness: the build is a
// cache hit after a checkout's first run, whose 0.12-0.2 s of go tool
// start-up would drown the rest, and is reported beside it as
// setup.build_s. The extra documents (the layer suite's) are generated
// once, untimed. The last daemon stays up for the run.
func (r *runner) setup(once bool, extra []string) (setupParts, error) {
	b, err := r.e.build()
	if err != nil {
		return setupParts{}, err
	}
	if len(extra) > 0 {
		if _, err := r.e.generate(extra); err != nil {
			return setupParts{}, err
		}
	}
	var total, gen, ready []float64
	begin := time.Now()
	more := func(i int) bool {
		if once {
			return i == 0
		}
		return i < setupReps || (i < setupMaxReps && time.Since(begin) < setupBudget)
	}
	for i := 0; more(i); i++ {
		r.close() // the previous repetition's daemon, outside the timed part
		start := time.Now()
		g, err := r.e.generate(r.docs())
		if err != nil {
			return setupParts{}, err
		}
		if r.serves() {
			if r.d, err = startDaemon(r.e, r.clients); err != nil {
				return setupParts{}, err
			}
			ready = append(ready, r.d.readyMS)
		}
		total = append(total, time.Since(start).Seconds())
		gen = append(gen, g.Seconds())
	}
	return setupParts{median(total), b.Seconds(), median(gen), median(ready)}, nil
}

func (r *runner) close() {
	if r.d != nil {
		r.d.stop()
		r.d = nil
	}
}

var (
	itemsRE  = regexp.MustCompile(`(\d+) item\(s\)`)
	prunedRE = regexp.MustCompile(`pruned (\d+) -> (\d+) bytes`)
)

// xqrunArgs is the answer_* command line.
func (r *runner) xqrunArgs(q query, projected, quiet bool) []string {
	args := []string{"-q", q.Source, "-in", r.e.doc(r.docName("d3"))}
	if projected {
		args = append(args, "-dtd", r.e.dtd(), "-prune")
	}
	if quiet {
		args = append(args, "-quiet")
	}
	return args
}

// verifyAnswer checks Thm. 4.5 through the process boundary: for every
// Q10 query xqrun -prune must print exactly what xqrun prints. It is
// also the untimed warm-up pass of both arms.
func (r *runner) verifyAnswer() error {
	doc := r.docName("d3")
	for _, q := range q10 {
		direct, projected := newDigest(), newDigest()
		dres, err := runProc(r.e.tool("xqrun"), r.xqrunArgs(q, false, false), nil, direct)
		if err != nil {
			return err
		}
		pres, err := runProc(r.e.tool("xqrun"), r.xqrunArgs(q, true, false), nil, projected)
		if err != nil {
			return err
		}
		if direct.sum() != projected.sum() {
			return fmt.Errorf("%s on %s: xqrun -prune printed %d bytes, xqrun %d bytes: the pruned answer differs",
				q.ID, doc, projected.n, direct.n)
		}
		if err := r.e.checkGolden("query/"+doc+"/"+q.ID, direct.sum(), r.seen); err != nil {
			return err
		}
		m := itemsRE.FindSubmatch(dres.stderr)
		pm := prunedRE.FindSubmatch(pres.stderr)
		if m == nil || pm == nil {
			return fmt.Errorf("%s: cannot read xqrun's statistics from %q / %q", q.ID, dres.stderr, pres.stderr)
		}
		r.counts[q.ID] = string(m[1])
		in, _ := strconv.ParseFloat(string(pm[1]), 64)
		out, _ := strconv.ParseFloat(string(pm[2]), 64)
		r.table1[q.ID] = [3]float64{dres.ms / pres.ms, pres.rssMB / dres.rssMB, 100 * out / in}
	}
	return nil
}

// xmlpruneArgs is the cli_large command line (in/out empty: stdin/stdout).
func (r *runner) xmlpruneArgs(p projection, validate bool, in, out string) []string {
	args := []string{"-dtd", r.e.dtd(), "-q", p.Query}
	if in != "" {
		args = append(args, "-in", in)
	}
	if out != "" {
		args = append(args, "-out", out)
	}
	if validate {
		args = append(args, "-validate")
	}
	return args
}

// verifyPrune asserts that every route to a pruned document agrees:
// xmlprune from a file, xmlprune from stdin, and with a daemon a sized
// POST and (low only, see README) a chunked POST.
func (r *runner) verifyPrune(doc string, p projection, validate bool) (outputID, error) {
	key := "prune/" + doc + "/" + p.Name
	if id, ok := r.verified[key]; ok { // -smoke maps two classes to one document
		return id, nil
	}
	in, out := r.e.doc(doc), r.e.path("verify.xml")
	if _, err := runProc(r.e.tool("xmlprune"), r.xmlpruneArgs(p, validate, in, out), nil, nil); err != nil {
		return outputID{}, err
	}
	want, err := digestFile(out)
	if err != nil {
		return outputID{}, err
	}
	agree := func(route string, got outputID) error {
		if got != want {
			return fmt.Errorf("%s x %s: %s produced %d bytes sha256 %s, xmlprune from a file %d bytes sha256 %s",
				doc, p.Name, route, got.Len, got.SHA256, want.Len, want.SHA256)
		}
		return nil
	}
	f, err := os.Open(in)
	if err != nil {
		return outputID{}, err
	}
	piped := newDigest()
	_, err = runProc(r.e.tool("xmlprune"), r.xmlpruneArgs(p, validate, "", ""), f, piped)
	f.Close()
	if err != nil {
		return outputID{}, err
	}
	if err := agree("xmlprune from stdin", piped.sum()); err != nil {
		return outputID{}, err
	}
	if r.d != nil && p != projFull {
		body, err := os.ReadFile(in)
		if err != nil {
			return outputID{}, err
		}
		rep, err := r.d.do(request{proj: p.Name, doc: body, status: 200, xcache: "MISS"})
		if err != nil {
			return outputID{}, fmt.Errorf("sized POST %s x %s: %w", doc, p.Name, err)
		}
		if err := agree("a sized POST", rep.out); err != nil {
			return outputID{}, err
		}
		if p == projLow {
			rep, err := r.d.do(request{proj: p.Name, doc: body, chunked: true, status: 200, xcache: "BYPASS"})
			if err != nil {
				return outputID{}, fmt.Errorf("chunked POST %s x %s: %w", doc, p.Name, err)
			}
			if err := agree("a chunked POST", rep.out); err != nil {
				return outputID{}, err
			}
		}
	}
	r.verified[key] = want
	return want, r.e.checkGolden(key, want, r.seen)
}

// cliClass is one cli_large op class.
type cliClass struct {
	name     string
	p        projection
	validate bool
}

var cliClasses = []cliClass{{"low", projLow, false}, {"mid_validate", projMid, true}, {"full", projFull, false}}

func cliClassByName(name string) cliClass {
	for _, c := range cliClasses {
		if c.name == name {
			return c
		}
	}
	panic("benchmark: no cli_large class " + name) // class names come from cliClasses itself
}

// serveClass is one serve_* op class: a document and a projection.
type serveClass struct {
	doc string
	p   projection
}

var serveClasses = map[string]serveClass{
	"d1_low":  {"d1", projLow},
	"d1_mid":  {"d1", projMid},
	"d10_low": {"d10", projLow},
	"d10_mid": {"d10", projMid},
}

// Two small documents to one medium, as a request cycle.
var (
	mixedCycle  = []string{"d1_low", "d1_mid", "d10_low", "d1_low", "d1_mid", "d10_mid"}
	streamCycle = []string{"d1_low", "d1_low", "d10_low"}
)

// verify checks the workload's outputs before anything is timed and
// records what a timed op must produce. It doubles as the untimed
// warm-up pass.
func (r *runner) verify() error {
	switch r.workload {
	case "answer_projected", "answer_direct":
		for _, q := range q10 {
			r.classes = append(r.classes, q.ID)
		}
		return r.verifyAnswer()
	case "cli_large":
		for _, c := range cliClasses {
			r.classes = append(r.classes, c.name)
			id, err := r.verifyPrune(r.docName("d30"), c.p, c.validate)
			if err != nil {
				return err
			}
			r.expect[c.name] = id
		}
		return nil
	}
	r.classes = []string{"d1_low", "d10_low"}
	if r.workload != "serve_stream" {
		r.classes = []string{"d1_low", "d1_mid", "d10_low", "d10_mid"}
	}
	for _, c := range r.classes {
		sc := serveClasses[c]
		id, err := r.verifyPrune(r.docName(sc.doc), sc.p, false)
		if err != nil {
			return err
		}
		r.expect[c] = id
	}
	if r.workload == "serve_warm" {
		r.classes = append(r.classes, "reval_304")
		return r.touchHotSet()
	}
	return nil
}

// hotSuffix names a hot body; the class is part of it because -smoke
// maps two classes to one document.
func hotSuffix(class string, variant int) string {
	return fmt.Sprintf("<!--%s.%d-->", class, variant)
}

// touchHotSet sends serve_warm's eight bodies once, untimed, so that
// every timed request finds its result cached, and keeps the validators
// for the body-free revalidations.
func (r *runner) touchHotSet() error {
	for _, c := range []string{"d1_low", "d1_mid", "d10_low", "d10_mid"} {
		for v := 0; v < 2; v++ {
			sc := serveClasses[c]
			body, err := os.ReadFile(r.e.doc(r.docName(sc.doc)))
			if err != nil {
				return err
			}
			rep, err := r.d.do(request{proj: sc.p.Name, doc: body, suffix: hotSuffix(c, v), status: 200, xcache: "MISS"})
			if err != nil {
				return fmt.Errorf("hot set %s: %w", c, err)
			}
			if rep.out != r.expect[c] {
				return fmt.Errorf("hot set %s: reply differs from the verified output", c)
			}
			r.hot = append(r.hot, hotBody{class: c, etag: rep.etag, digest: rep.digest})
		}
	}
	return nil
}

// window is the outcome of one timed window.
type window struct {
	samples           []sample
	attempted, failed int
	seconds           float64
	firstErr          error
	daemonRSSMB       float64 // serve_*: mean of the daemon's resident set over the window
}

func (w *window) add(s sample, err error) {
	w.attempted++
	if err != nil {
		w.failed++
		if w.firstErr == nil {
			w.firstErr = err
		}
		return
	}
	w.samples = append(w.samples, s) // a failed op contributes no latency sample
}

// timed runs the workload's ops for the given time: at least one pass
// over the classes, then until the deadline.
func (r *runner) timed(seconds float64) (window, error) {
	if r.serves() {
		return r.timedServe(seconds)
	}
	var w window
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for _, c := range r.classes {
			if pass > 0 && !time.Now().Before(deadline) {
				break
			}
			w.add(r.procOp(c))
		}
	}
	w.seconds = time.Since(start).Seconds()
	return w, nil
}

// procOp is one process invocation of an answer_* or cli_large class.
func (r *runner) procOp(class string) (sample, error) {
	if r.workload == "cli_large" {
		c := cliClassByName(class)
		doc := r.docName("d30")
		out := r.e.path("out-" + class + ".xml")
		res, err := runProc(r.e.tool("xmlprune"), r.xmlpruneArgs(c.p, c.validate, r.e.doc(doc), out), nil, nil)
		if err != nil {
			return sample{}, err
		}
		got, err := digestFile(out)
		if err != nil {
			return sample{}, err
		}
		if got != r.expect[class] {
			return sample{}, fmt.Errorf("cli_large %s: output differs from the verified output", class)
		}
		return sample{class: class, ms: res.ms, bytes: r.e.docBytes[doc], rssMB: res.rssMB}, nil
	}
	res, err := runProc(r.e.tool("xqrun"), r.xqrunArgs(queryByID(class), r.workload == "answer_projected", true), nil, nil)
	if err != nil {
		return sample{}, err
	}
	if m := itemsRE.FindSubmatch(res.stderr); m == nil || string(m[1]) != r.counts[class] {
		return sample{}, fmt.Errorf("%s %s: xqrun reported %q, verified count is %s", r.workload, class, res.stderr, r.counts[class])
	}
	return sample{class: class, ms: res.ms, bytes: r.e.docBytes[r.docName("d3")], rssMB: res.rssMB}, nil
}

// timedServe drives the daemon in a closed loop: each of r.clients
// keep-alive connections sends its next request when the previous
// reply has been read to the end.
func (r *runner) timedServe(seconds float64) (window, error) {
	bodies := map[string][]byte{}
	for _, c := range r.classes {
		if sc, ok := serveClasses[c]; ok && bodies[sc.doc] == nil {
			b, err := os.ReadFile(r.e.doc(r.docName(sc.doc)))
			if err != nil {
				return window{}, err
			}
			bodies[sc.doc] = b
		}
	}
	var seq atomic.Int64
	parts := make([]window, r.clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for i := range parts {
		wg.Add(1)
		go func(w *window) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				class, req := r.nextRequest(int(seq.Add(1)-1), bodies)
				rep, err := r.d.do(req)
				if err == nil && req.status == 200 && rep.out != r.expect[class] {
					err = fmt.Errorf("%s %s: reply differs from the verified output", r.workload, class)
				}
				w.add(sample{class: class, ms: rep.ms, bytes: int64(len(req.doc) + len(req.suffix))}, err)
			}
		}(&parts[i])
	}
	// Sample the daemon's resident set while the clients run. It ramps
	// (the result cache fills) under the collector's sawtooth, so the
	// mean over the window is steadier than its median or its peak.
	var rssSum float64
	var rssN int
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for time.Now().Before(deadline) {
			rssSum += r.d.rssMB()
			rssN++
			time.Sleep(50 * time.Millisecond)
		}
	}()
	wg.Wait()
	<-sampled
	total := window{seconds: time.Since(start).Seconds(), daemonRSSMB: rssSum / float64(max(rssN, 1))}
	for _, p := range parts {
		total.samples = append(total.samples, p.samples...)
		total.attempted += p.attempted
		total.failed += p.failed
		if total.firstErr == nil {
			total.firstErr = p.firstErr
		}
	}
	return total, nil
}

// nextRequest maps the n-th request of a serve_* window to its class
// and wire form.
func (r *runner) nextRequest(n int, bodies map[string][]byte) (string, request) {
	switch r.workload {
	case "serve_warm":
		if n%4 == 3 { // every fourth request revalidates without a body
			h := r.hot[(n/4)%len(r.hot)]
			return "reval_304", request{proj: serveClasses[h.class].p.Name, etag: h.etag, digest: h.digest, status: 304, xcache: "HIT"}
		}
		m := n - n/4
		class := mixedCycle[m%len(mixedCycle)]
		sc := serveClasses[class]
		suffix := hotSuffix(class, (m/len(mixedCycle))%2)
		return class, request{proj: sc.p.Name, doc: bodies[sc.doc], suffix: suffix, status: 200, xcache: "HIT"}
	case "serve_stream":
		class := streamCycle[n%len(streamCycle)]
		sc := serveClasses[class]
		return class, request{proj: sc.p.Name, doc: bodies[sc.doc], suffix: fmt.Sprintf("<!--%d-->", n), chunked: true, status: 200, xcache: "BYPASS"}
	}
	// serve_cold: a trailing comment after the root makes every body
	// new to the result cache without changing the pruned output.
	class := mixedCycle[n%len(mixedCycle)]
	sc := serveClasses[class]
	return class, request{proj: sc.p.Name, doc: bodies[sc.doc], suffix: fmt.Sprintf("<!--%d-->", n), status: 200, xcache: "MISS"}
}
