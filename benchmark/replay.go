package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
)

// replayReps is how often the traced run replays each class's op; the
// class's traced time is the median of its root spans.
const replayReps = 3

// replay runs one representative op per class of the workload
// in-process, as the chain of layer calls the binary makes, each call
// in a span under the op's root span. It returns the traced
// milliseconds per class. End-to-end numbers never come from here.
//
// serve_warm's reval_304 is not replayed: a body-free revalidation makes
// no layer call below the handler (it compares two strings), so a replay
// would explain none of the 0.2 ms round trip and only drag the mean
// over classes down. server.reval_304_us times the whole request against
// the handler in-process.
func (r *runner) replay(t *tracer, reps int) (map[string]float64, error) {
	sch, err := loadSchema(r.e.dtd())
	if err != nil {
		return nil, err
	}
	var op func(class string) error
	switch {
	case strings.HasPrefix(r.workload, "answer_"):
		op = func(class string) error { return r.replayAnswer(t, sch, class) }
	case r.workload == "cli_large":
		op = func(class string) error { return r.replayCLI(t, sch, class) }
	default:
		srv, err := newServeReplay(r, sch)
		if err != nil {
			return nil, err
		}
		op = func(class string) error { return srv.op(t, class) }
	}
	traced := make(map[string]float64)
	for _, class := range r.classes {
		if class == "reval_304" {
			continue
		}
		var ms []float64
		for i := 0; i < reps; i++ {
			t.beginOp(class)
			var err error
			d := t.do("harness", "op "+class, 0, func() { err = op(class) })
			if err != nil {
				return nil, fmt.Errorf("replay %s %s: %w", r.workload, class, err)
			}
			ms = append(ms, d.Seconds()*1e3)
		}
		traced[class] = median(ms)
	}
	return traced, nil
}

// step runs one layer call in a span and keeps the first error.
func step(t *tracer, err *error, layer, name string, bytes int64, f func() error) {
	if *err != nil {
		return
	}
	t.do(layer, name, bytes, func() { *err = f() })
}

// replayAnswer is xqrun: compile, read, (parse DTD, infer, prune,) load,
// evaluate.
func (r *runner) replayAnswer(t *tracer, sch *schema, class string) error {
	q := queryByID(class)
	var err error
	var cq compiledQuery
	var raw []byte
	step(t, &err, "query", "xmlproj.Compile", 0, func() (e error) { cq, e = compileQuery(q.Source); return })
	step(t, &err, "io", "os.ReadFile", 0, func() (e error) { raw, e = os.ReadFile(r.e.doc(r.docName("d3"))); return })
	input := string(raw)
	if r.workload == "answer_projected" {
		var p *projector
		step(t, &err, "dtd", "xmlproj.ParseDTDFile", 0, sch.parseDTDFile)
		step(t, &err, "core", "DTD.Infer", 0, func() (e error) { p, e = sch.infer(cq); return })
		var pruned strings.Builder
		step(t, &err, "prune", "Projector.PruneStream", int64(len(input)), func() (e error) {
			_, e = p.pruneStream(&pruned, strings.NewReader(input))
			return
		})
		input = pruned.String()
	}
	var doc document
	step(t, &err, "tree", "xmlproj.ParseXMLString", int64(len(input)), func() (e error) { doc, e = loadXML(input); return })
	step(t, &err, "eval", "Query.Evaluate", 0, func() error {
		n, e := cq.evaluate(doc)
		if e == nil && fmt.Sprint(n) != r.counts[class] {
			e = fmt.Errorf("%d items in-process, xqrun reported %s", n, r.counts[class])
		}
		return e
	})
	return err
}

// replayCLI is a one-shot xmlprune: parse the DTD, compile and infer,
// then Engine.PruneBatch with one mmap-ed file job writing to a file.
// The serial scanner, index.Build and the digest are timed beside the
// op on the same bytes, as separate spans outside its root.
func (r *runner) replayCLI(t *tracer, sch *schema, class string) error {
	c := cliClassByName(class)
	in, out := r.e.doc(r.docName("d30")), r.e.path("replay-"+class+".xml")
	var err error
	var p *projector
	step(t, &err, "dtd", "xmlproj.ParseDTDFile", 0, sch.parseDTDFile)
	step(t, &err, "core", "Compile+DTD.Infer", 0, func() (e error) { p, e = sch.inferSource(c.p.Query); return })
	step(t, &err, "engine", "Engine.PruneBatch (1 file job)", r.e.docBytes[r.docName("d30")], func() error {
		f, e := os.Create(out)
		if e != nil {
			return e
		}
		w := bufio.NewWriterSize(f, 1<<20)
		ran, e := newEngine(true).pruneFile(p, in, w, c.validate, func(open func()) {
			t.do("mmapio", "mmapio.Open", 0, open)
		})
		t.setAttr("engine=" + ran)
		if e == nil {
			e = w.Flush()
		}
		if cerr := f.Close(); e == nil {
			e = cerr
		}
		return e
	})
	if err != nil {
		return err
	}
	if got, derr := digestFile(out); derr != nil || got != r.expect[class] {
		return fmt.Errorf("in-process output differs from the verified output (%v)", derr)
	}
	return nil
}

// cliAside times, once per class and outside any op, the parts auto
// routing chooses between on the cli_large document.
func (r *runner) cliAside(t *tracer) error {
	sch, err := loadSchema(r.e.dtd())
	if err != nil {
		return err
	}
	data, closeFn, err := mmapOpen(r.e.doc(r.docName("d30")))
	if err != nil {
		return err
	}
	defer closeFn()
	t.beginOp("aside")
	n := int64(len(data))
	step(t, &err, "rescache", "rescache.DigestBytes", n, func() error { digestBytes(data); return nil })
	step(t, &err, "index", "index.Build", n, func() error { return sch.indexBuild(data) })
	for _, c := range cliClasses {
		p, perr := sch.inferSource(c.p.Query)
		if perr != nil {
			return perr
		}
		for _, eng := range []string{"scanner", "auto"} {
			step(t, &err, "scan", "prune.StreamBytes "+eng+" "+c.name, n, func() error {
				o, e := p.streamBytes(io.Discard, data, pruneCall{engine: eng, validate: c.validate})
				t.setAttr("engine=" + o.engine)
				return e
			})
		}
	}
	return err
}

// serveReplay holds what the serve_* replays share: the engine (whose
// result cache persists across ops, like the daemon's) and the bodies.
type serveReplay struct {
	r      *runner
	eng    engine
	projs  map[string]*projector
	bodies map[string]*freshBody
	seq    int          // numbers serve_cold's bodies: each is new to the result cache
	buf    bytes.Buffer // the request buffer, reused like the daemon's pooled one
}

func newServeReplay(r *runner, sch *schema) (*serveReplay, error) {
	s := &serveReplay{r: r, eng: newEngine(true), projs: map[string]*projector{}, bodies: map[string]*freshBody{}}
	for _, p := range []projection{projLow, projMid} {
		pr, err := sch.inferSource(p.Query)
		if err != nil {
			return nil, err
		}
		s.projs[p.Name] = pr
	}
	for _, d := range []string{"d1", "d10"} {
		b, err := os.ReadFile(r.e.doc(r.docName(d)))
		if err != nil {
			return nil, err
		}
		s.bodies[d] = newFreshBody(b, &s.seq)
	}
	if r.workload == "serve_warm" { // touch the hot set, untimed
		for _, sc := range serveClasses {
			if _, err := s.eng.pruneGather(io.Discard, s.projs[sc.p.Name], s.bodies[sc.doc].buf, ""); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// op replays one request as the layer calls the handler makes once the
// body is in memory: digest, cache lookup + gather, write (serve_cold,
// serve_warm); or the serial scanner fed by a reader (serve_stream).
func (s *serveReplay) op(t *tracer, class string) error {
	var err error
	sc := serveClasses[class]
	p := s.projs[sc.p.Name]
	want := s.r.expect[class]
	got := newDigest()
	if s.r.workload == "serve_stream" {
		src := &chunkReader{s.bodies[sc.doc].buf}
		step(t, &err, "prune", "Projector.PruneStreamOpts (chunked body)", int64(len(src.data)), func() error {
			ran, e := p.pruneStreamServed(got, src)
			t.setAttr("engine=" + ran)
			return e
		})
	} else {
		sent := s.bodies[sc.doc].buf // serve_warm: always the touched body
		if s.r.workload == "serve_cold" {
			sent = s.bodies[sc.doc].next()
		}
		var body []byte
		step(t, &err, "io", "read body", int64(len(sent)), func() error {
			s.buf.Reset()
			_, e := s.buf.ReadFrom(bytes.NewReader(sent))
			body = s.buf.Bytes()
			return e
		})
		var dig string
		step(t, &err, "rescache", "Engine.DigestBytes", int64(len(body)), func() error { dig = s.eng.digest(body); return nil })
		step(t, &err, "engine", "Engine.PruneGatherDigest+WriteTo", int64(len(body)), func() error {
			hit, e := s.eng.pruneGather(got, p, body, dig)
			if e == nil && hit != (s.r.workload == "serve_warm") {
				e = fmt.Errorf("result cache hit=%v", hit)
			}
			return e
		})
	}
	if err == nil && got.sum() != want {
		err = fmt.Errorf("in-process output differs from the verified output")
	}
	return err
}
