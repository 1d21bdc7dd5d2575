package main

// This is the only file that imports xmlproj or xmlproj/internal/...:
// every call the traced run makes into the repository goes through a
// function here, so a change that consolidates those APIs sees in one
// place what the preceding benchmark change has to re-point.
//
// Calls the traced run depends on:
//
//	xmlproj.ParseDTDFile / Compile / DTD.Infer / ParseXMLString / Query.Evaluate
//	xmlproj.Projector.PruneStream / PruneStreamOpts
//	xmlproj.NewEngine / Engine.DigestBytes / PruneGatherDigest / PruneBatch
//	xmlproj.IntraWorkerBudget
//	dtd.ParseWithEntities / DTD.CompileProjection / CombineProjections
//	prune.Stream / StreamBytes / StreamGather / StreamMultiGather
//	index.Build, rescache.DigestBytes / New / Cache.GetOrFill / Cache.Get
//	tree.ParseBytes, mmapio.Open, server.New / AddSchema / AddProjection / Handler
//
// The end-to-end run depends on nothing here; it uses these flags only:
// xqrun -q -in -dtd -prune -quiet; xmlprune -dtd -q -in -out -validate;
// xmlprojd -schema -projection -listen -admin; xmarkgen -factor -seed -dtd -o.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime"

	"xmlproj"
	"xmlproj/internal/dtd"
	"xmlproj/internal/index"
	"xmlproj/internal/mmapio"
	"xmlproj/internal/prune"
	"xmlproj/internal/rescache"
	"xmlproj/internal/server"
	"xmlproj/internal/tree"
)

// schema is the auction DTD, parsed once through the public API (for
// inference, evaluation and the engine) and once through internal/dtd
// (for the prune entry points that take a compiled projection).
type schema struct {
	path string
	src  string
	pub  *xmlproj.DTD
	d    *dtd.DTD
}

func loadSchema(path string) (*schema, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &schema{path: path, src: string(src)}
	if s.pub, err = xmlproj.ParseDTDFile(path, ""); err != nil {
		return nil, err
	}
	if s.d, err = dtd.ParseWithEntities(s.src, ""); err != nil {
		return nil, err
	}
	return s, nil
}

// parseDTD is the dtd.parse_us call.
func (s *schema) parseDTD() error {
	_, err := dtd.ParseWithEntities(s.src, "")
	return err
}

// parseDTDFile is the DTD step of a replayed op.
func (s *schema) parseDTDFile() error {
	_, err := xmlproj.ParseDTDFile(s.path, "")
	return err
}

// compiledQuery is a parsed query.
type compiledQuery struct{ q *xmlproj.Query }

func compileQuery(src string) (compiledQuery, error) {
	q, err := xmlproj.Compile(src)
	return compiledQuery{q}, err
}

// projector is an inferred π in the three forms the layers take it: the
// public Projector, the name set, and the compiled decision table.
type projector struct {
	s        *schema
	pub      *xmlproj.Projector
	pi       dtd.NameSet
	compiled *dtd.Projection
}

// infer runs the static analysis for a bunch of queries, as xqrun and
// xmlprune do (materialised results).
func (s *schema) infer(queries ...compiledQuery) (*projector, error) {
	qs := make([]*xmlproj.Query, len(queries))
	for i, q := range queries {
		qs[i] = q.q
	}
	pub, err := s.pub.Infer(xmlproj.Materialized, qs...)
	if err != nil {
		return nil, err
	}
	pi := dtd.NewNameSet()
	for _, n := range pub.Names() {
		pi.Add(dtd.Name(n))
	}
	return &projector{s: s, pub: pub, pi: pi, compiled: s.d.CompileProjection(pi)}, nil
}

// inferSource compiles and infers in one step.
func (s *schema) inferSource(sources ...string) (*projector, error) {
	qs := make([]compiledQuery, len(sources))
	for i, src := range sources {
		q, err := compileQuery(src)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	return s.infer(qs...)
}

// rootOnly is the projector that keeps the root element alone: a prune
// with it is pure tokenise + skip-scan.
func (s *schema) rootOnly() *projector {
	pi := dtd.NewNameSet(s.d.Root)
	return &projector{s: s, pi: pi, compiled: s.d.CompileProjection(pi)}
}

// compileProjection is the dtd.compile_projection_us call.
func (p *projector) compileProjection() { p.s.d.CompileProjection(p.pi) }

// pruneCall says how one internal/prune call runs.
type pruneCall struct {
	engine   string // "auto", "scanner", "parallel", "pipelined"
	validate bool
	workers  int // intra-document workers; 0 = GOMAXPROCS
}

var engines = map[string]prune.Engine{
	"auto": prune.EngineAuto, "scanner": prune.EngineScanner,
	"parallel": prune.EngineParallel, "pipelined": prune.EnginePipelined,
}

var engineNames = map[prune.Engine]string{
	prune.EngineScanner: "scanner", prune.EngineDecoder: "decoder",
	prune.EngineParallel: "parallel", prune.EnginePipelined: "pipelined",
}

func (p *projector) opts(c pruneCall, chosen *prune.Engine) prune.StreamOptions {
	return prune.StreamOptions{
		Engine: engines[c.engine], Validate: c.validate, Projection: p.compiled,
		ParallelWorkers: c.workers, Chosen: chosen,
	}
}

// pruneOutcome is what a prune call reports back.
type pruneOutcome struct {
	bytesOut        int64
	rawBytes        int64  // gather only: output bytes referenced in place
	elementsIn      int64  // element start tags read
	elementsSkipped int64  // of those, inside discarded subtrees
	engine          string // what auto resolved to
}

func outcome(st prune.Stats, chosen prune.Engine) pruneOutcome {
	return pruneOutcome{
		bytesOut: st.BytesOut, elementsIn: st.ElementsIn, elementsSkipped: st.ElementsSkipped,
		engine: engineNames[chosen],
	}
}

// streamBytes is prune.StreamBytes: in-memory input, copied output.
func (p *projector) streamBytes(dst io.Writer, data []byte, c pruneCall) (pruneOutcome, error) {
	var chosen prune.Engine
	st, err := prune.StreamBytes(dst, data, p.s.d, p.pi, p.opts(c, &chosen))
	return outcome(st, chosen), err
}

// stream is prune.Stream: reader input, as a chunked upload or a pipe
// delivers it.
func (p *projector) stream(dst io.Writer, src io.Reader, c pruneCall) (pruneOutcome, error) {
	var chosen prune.Engine
	st, err := prune.Stream(dst, src, p.s.d, p.pi, p.opts(c, &chosen))
	return outcome(st, chosen), err
}

// gather is prune.StreamGather followed by WriteTo: in-memory input,
// output as spans over it.
func (p *projector) gather(dst io.Writer, data []byte, c pruneCall) (pruneOutcome, error) {
	var chosen prune.Engine
	g, st, err := prune.StreamGather(data, p.s.d, p.pi, p.opts(c, &chosen))
	if err != nil {
		return pruneOutcome{}, err
	}
	defer g.Close()
	out := outcome(st, chosen)
	out.rawBytes = g.RawBytes()
	_, err = g.WriteTo(dst)
	return out, err
}

// multiGatherer is a fused set of projectors for prune.StreamMultiGather.
type multiGatherer struct {
	s    *schema
	pis  []dtd.NameSet
	opts prune.MultiOptions
}

func newMultiGatherer(ps []*projector) (*multiGatherer, error) {
	m := &multiGatherer{s: ps[0].s}
	for _, p := range ps {
		m.pis = append(m.pis, p.pi)
		m.opts.Projections = append(m.opts.Projections, p.compiled)
	}
	var err error
	m.opts.Combined, err = dtd.CombineProjections(m.opts.Projections)
	return m, err
}

func (m *multiGatherer) run(data []byte) error {
	gs, _, errs := prune.StreamMultiGather(data, m.s.d, m.pis, m.opts)
	var first error
	for j, g := range gs {
		if errs[j] != nil && first == nil {
			first = errs[j]
		}
		if g != nil {
			g.Close()
		}
	}
	return first
}

// indexBuild is index.Build with the DTD's symbol lookup, as the
// parallel pruner calls it.
func (s *schema) indexBuild(data []byte) error {
	ix, err := index.Build(data, index.Options{Lookup: s.d.Symbols().Lookup})
	if err != nil {
		return err
	}
	ix.Release()
	return nil
}

// digestBytes is rescache.DigestBytes, the document digest every cache
// hit pays.
func digestBytes(data []byte) { rescache.DigestBytes(data) }

// hotCache is a result cache holding one entry, for rescache.hit_us.
type hotCache struct {
	c   *rescache.Cache
	key rescache.Key
}

func newHotCache(doc, out []byte) (*hotCache, error) {
	h := &hotCache{c: rescache.New(64 << 20), key: rescache.Key{Doc: rescache.DigestBytes(doc), Variant: "bench"}}
	_, _, err := h.c.GetOrFill(h.key, func() (*rescache.Entry, error) {
		return rescache.NewEntry(out, prune.Stats{}), nil
	})
	return h, err
}

func (h *hotCache) get() bool {
	_, ok := h.c.Get(h.key)
	return ok
}

// treeParse is tree.ParseBytes, the loader.
func treeParse(data []byte) error {
	_, err := tree.ParseBytes(data)
	return err
}

// mmapOpen is mmapio.Open; the caller closes.
func mmapOpen(path string) ([]byte, func() error, error) {
	d, err := mmapio.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return d.Bytes(), d.Close, nil
}

// document is a loaded tree.
type document struct{ doc *xmlproj.Document }

// loadXML is xmlproj.ParseXMLString, the load step of xqrun.
func loadXML(src string) (document, error) {
	doc, err := xmlproj.ParseXMLString(src)
	return document{doc}, err
}

// evaluate is Query.Evaluate; it returns the item count.
func (q compiledQuery) evaluate(d document) (int, error) {
	res, err := q.q.Evaluate(d.doc)
	return res.Count, err
}

// pruneStream is Projector.PruneStream, the prune step of xqrun.
func (p *projector) pruneStream(dst io.Writer, src io.Reader) (int64, error) {
	st, err := p.pub.PruneStream(dst, src)
	return st.BytesOut, err
}

// servedOptions are the StreamOptions xmlprojd prunes with: its
// intra-document budget is GOMAXPROCS divided by the admission width,
// which defaults to GOMAXPROCS.
func servedOptions(chosen *xmlproj.PruneEngine) xmlproj.StreamOptions {
	procs := runtime.GOMAXPROCS(0)
	return xmlproj.StreamOptions{IntraWorkers: xmlproj.IntraWorkerBudget(procs, procs), Chosen: chosen}
}

// pruneStreamServed is Projector.PruneStreamOpts as xmlprojd's streamed
// route calls it.
func (p *projector) pruneStreamServed(dst io.Writer, src io.Reader) (string, error) {
	chosen := xmlproj.PruneAuto
	_, err := p.pub.PruneStreamOpts(dst, src, servedOptions(&chosen))
	return chosen.String(), err
}

// engine is an xmlproj.Engine, with or without a result cache.
type engine struct{ eng *xmlproj.Engine }

func newEngine(resultCache bool) engine {
	var budget int64
	if resultCache {
		budget = xmlproj.DefaultResultCacheBytes
	}
	return engine{xmlproj.NewEngine(xmlproj.EngineOptions{ResultCacheBytes: budget})}
}

// digest is Engine.DigestBytes.
func (e engine) digest(data []byte) string {
	d, _ := e.eng.DigestBytes(data)
	return d
}

// pruneGather is Engine.PruneGatherDigest followed by WriteTo: the
// gather route of the daemon after the body is read and digested. It
// reports whether the result cache answered.
func (e engine) pruneGather(dst io.Writer, p *projector, data []byte, digest string) (hit bool, err error) {
	res, info, err := e.eng.PruneGatherDigest(p.pub, data, digest, servedOptions(nil))
	if err != nil {
		return false, err
	}
	defer res.Close()
	_, err = res.WriteTo(dst)
	return info.Hit, err
}

// fileSource is a batch job's input the way xmlprune opens it: mapped
// at the prune's point of commitment. wrap runs the mmapio.Open call, so
// the traced run can record it as a span.
type fileSource struct {
	path  string
	wrap  func(open func())
	close func() error
}

func (f *fileSource) Read([]byte) (int, error) {
	return 0, fmt.Errorf("benchmark: %s was not mapped", f.path)
}

func (f *fileSource) InputSize() (int64, bool) {
	fi, err := os.Stat(f.path)
	if err != nil {
		return 0, false
	}
	return fi.Size(), true
}

func (f *fileSource) InputBytes() []byte {
	var data []byte
	f.wrap(func() {
		b, closeFn, err := mmapOpen(f.path)
		if err == nil {
			data, f.close = b, closeFn
		}
	})
	return data
}

// pruneFile is Engine.PruneBatch with one file job, the call a one-shot
// xmlprune makes. It reports which engine ran.
func (e engine) pruneFile(p *projector, in string, dst io.Writer, validate bool, wrapOpen func(open func())) (string, error) {
	if wrapOpen == nil {
		wrapOpen = func(open func()) { open() }
	}
	src := &fileSource{path: in, wrap: wrapOpen}
	res, _, err := e.eng.PruneBatch(context.Background(), p.pub,
		[]xmlproj.BatchJob{{Name: in, Src: src, Dst: dst}},
		xmlproj.BatchOptions{Validate: validate, FailFast: true})
	if src.close != nil {
		src.close()
	}
	ran := "scanner"
	if len(res) == 1 && res[0].Parallel.Workers > 0 && !res[0].Parallel.Fallback {
		ran = "parallel"
	}
	return ran, err
}

// pruneBatch is Engine.PruneBatch over n in-memory copies of one
// document, output discarded.
func (e engine) pruneBatch(p *projector, data []byte, n int) error {
	jobs := make([]xmlproj.BatchJob, n)
	for i := range jobs {
		jobs[i] = xmlproj.BatchJob{Name: fmt.Sprint(i), Src: bytes.NewReader(data), Dst: io.Discard}
	}
	_, _, err := e.eng.PruneBatch(context.Background(), p.pub, jobs, xmlproj.BatchOptions{FailFast: true})
	return err
}

// newHandler is server.New with the auction schema and the low and mid
// projections registered, as the daemon's command line sets it up.
func newHandler(s *schema) (http.Handler, error) {
	srv := server.New(server.Options{Logger: slog.New(slog.NewJSONHandler(io.Discard, nil))})
	if err := srv.AddSchema("auction", s.pub); err != nil {
		return nil, err
	}
	for _, p := range []projection{projLow, projMid} {
		if err := srv.AddProjection(p.Name, "auction", false, p.Query); err != nil {
			return nil, err
		}
	}
	return srv.Handler(), nil
}
