// Package server implements xmlprojd's HTTP serving layer: streaming
// type-based projection behind a long-lived service, the deployment the
// paper's load-time pruning is designed for (§6 — prune while parsing,
// in front of a main-memory query engine).
//
// A request POSTs a document to /prune naming a schema and a query
// bunch (or a projection precompiled at startup); the body streams
// through the one-pass pruner and the pruned document streams back.
// Bodies route by size: a declared Content-Length up to MaxGatherBytes
// is buffered once and served on the span-gather path with a real
// Content-Length; larger or chunked (unsized) bodies stream — with a
// worker budget of at least 4 through the pipelined streaming engine,
// which overlaps reading, indexing and pruning under bounded window
// memory — and pruned output is flushed to the client as it is
// produced. The
// streaming path never buffers the whole document, and every engine's
// worker budget is divided by the admission-control width so a
// saturated server never oversubscribes its CPUs.
//
// Admission control, body-size and token-size limits, and per-request
// deadlines make the service safe to expose to untrusted inputs;
// /debug/vars and the admin pprof listener make it observable.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xmlproj"
)

// DefaultMaxBodyBytes bounds request bodies when Options.MaxBodyBytes
// is zero: 1 GiB, far above any sensible document but finite.
const DefaultMaxBodyBytes = 1 << 30

// DefaultMaxGatherBytes bounds the span-gather fast path when
// Options.MaxGatherBytes is zero: bodies of known length up to 32 MiB
// are buffered once and pruned in place, and the response carries a
// real Content-Length instead of a trailer.
const DefaultMaxGatherBytes = 32 << 20

// Options configures a Server.
type Options struct {
	// Engine handles projector inference and caching; nil creates a
	// default engine.
	Engine *xmlproj.Engine
	// MaxBodyBytes bounds the request body; a larger body fails the
	// prune with 413. Zero means DefaultMaxBodyBytes, negative disables
	// the limit.
	MaxBodyBytes int64
	// MaxTokenSize bounds the scanner's token buffer per request (zero
	// means the scanner default, 8 MiB), so one hostile token cannot
	// take the server's memory hostage.
	MaxTokenSize int
	// MaxGatherBytes bounds the span-gather fast path: a body with a
	// declared Content-Length up to this is buffered whole, pruned in
	// place with zero output copies (the kept subtrees are sent straight
	// from the request buffer), and answered with a real Content-Length
	// — prune failures get a clean error status instead of a trailer.
	// Larger or unsized bodies stream as before. Zero means
	// DefaultMaxGatherBytes, negative disables the path.
	MaxGatherBytes int64
	// MaxConcurrent bounds prunes running at once; requests beyond it
	// wait up to AdmissionWait for a slot and are then rejected with
	// 429. Zero means GOMAXPROCS.
	MaxConcurrent int
	// AdmissionWait is how long a request queues for an admission slot
	// before 429. Zero rejects immediately.
	AdmissionWait time.Duration
	// RequestTimeout bounds one prune from admission to the last byte;
	// on expiry the prune aborts and the request fails with 408. Zero
	// means no per-request deadline.
	RequestTimeout time.Duration
	// ResultCacheBytes budgets the engine's content-addressed cache of
	// pruned outputs when the server creates its own engine (Engine ==
	// nil; an explicitly provided engine keeps its own configuration).
	// Gather-path requests for a repeat (document, projection, validate)
	// triple are served from cached bytes with a strong ETag, and
	// clients holding the ETag revalidate body-free via If-None-Match +
	// X-Doc-Digest. Zero means xmlproj.DefaultResultCacheBytes (256
	// MiB); negative disables the cache.
	ResultCacheBytes int64
	// Logger receives one structured record per /prune request. Nil
	// means slog.Default().
	Logger *slog.Logger
}

// Server serves streaming projection over HTTP. Configure it with
// AddSchema/AddProjection before serving; the handlers themselves are
// safe for any number of concurrent requests.
type Server struct {
	opts         Options
	eng          *xmlproj.Engine
	schemas      map[string]*xmlproj.DTD
	projections  map[string]*namedProjection
	sem          chan struct{}
	maxBody      int64
	maxGather    int64
	intraWorkers int
	log          *slog.Logger
	m            metrics
}

// namedProjection is a projector precompiled at startup, addressable by
// name so hot workloads skip query compilation entirely.
type namedProjection struct {
	schema   string
	queries  []string
	validate bool
	p        *xmlproj.Projector
}

// New returns a server with the given options and no schemas yet.
func New(opts Options) *Server {
	eng := opts.Engine
	if eng == nil {
		resultCache := opts.ResultCacheBytes
		if resultCache == 0 {
			resultCache = xmlproj.DefaultResultCacheBytes
		}
		if resultCache < 0 {
			resultCache = 0
		}
		eng = xmlproj.NewEngine(xmlproj.EngineOptions{ResultCacheBytes: resultCache})
	}
	width := opts.MaxConcurrent
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	maxBody := opts.MaxBodyBytes
	if maxBody == 0 {
		maxBody = DefaultMaxBodyBytes
	}
	maxGather := opts.MaxGatherBytes
	if maxGather == 0 {
		maxGather = DefaultMaxGatherBytes
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	return &Server{
		opts:        opts,
		eng:         eng,
		schemas:     make(map[string]*xmlproj.DTD),
		projections: make(map[string]*namedProjection),
		sem:         make(chan struct{}, width),
		maxBody:     maxBody,
		maxGather:   maxGather,
		// The same budget rule as engine.PruneBatch, fed by the
		// admission width: MaxConcurrent requests at full load share
		// the CPUs, so each prune gets GOMAXPROCS/MaxConcurrent
		// intra-document workers (never below 1 — 1 keeps it serial).
		intraWorkers: xmlproj.IntraWorkerBudget(runtime.GOMAXPROCS(0), width),
		log:          logger,
	}
}

// AddSchema registers a schema under name. Not safe to call once the
// server is handling requests.
func (s *Server) AddSchema(name string, d *xmlproj.DTD) error {
	if name == "" {
		return fmt.Errorf("server: schema name must not be empty")
	}
	if _, dup := s.schemas[name]; dup {
		return fmt.Errorf("server: schema %q already registered", name)
	}
	s.schemas[name] = d
	return nil
}

// AddProjection precompiles a named projection: the projector for the
// query bunch against a registered schema, inferred once at startup.
// Not safe to call once the server is handling requests.
func (s *Server) AddProjection(name, schema string, validate bool, queries ...string) error {
	if name == "" {
		return fmt.Errorf("server: projection name must not be empty")
	}
	if _, dup := s.projections[name]; dup {
		return fmt.Errorf("server: projection %q already registered", name)
	}
	d, ok := s.schemas[schema]
	if !ok {
		return fmt.Errorf("server: projection %q names unknown schema %q", name, schema)
	}
	p, err := s.infer(d, queries)
	if err != nil {
		return fmt.Errorf("server: projection %q: %w", name, err)
	}
	s.projections[name] = &namedProjection{schema: schema, queries: queries, validate: validate, p: p}
	return nil
}

// infer compiles the query bunch and runs (cached) projector inference.
func (s *Server) infer(d *xmlproj.DTD, queries []string) (*xmlproj.Projector, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("no queries")
	}
	compiled := make([]*xmlproj.Query, len(queries))
	for i, src := range queries {
		q, err := xmlproj.Compile(src)
		if err != nil {
			return nil, fmt.Errorf("query %q: %w", src, err)
		}
		compiled[i] = q
	}
	return s.eng.InferCached(d, xmlproj.Materialized, compiled...)
}

// Handler returns the public mux: POST /prune, GET /healthz, GET
// /schemas and GET /debug/vars.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /prune", s.handlePrune)
	mux.HandleFunc("HEAD /prune", s.handlePruneHead)
	mux.HandleFunc("POST /multiprune", s.handleMultiprune)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /schemas", s.handleSchemas)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	return mux
}

// AdminHandler returns the admin mux — pprof and /debug/vars — meant
// for a localhost-only listener.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", s.handleVars)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleSchemas lists the registered schemas and precompiled
// projections.
func (s *Server) handleSchemas(w http.ResponseWriter, r *http.Request) {
	type schemaInfo struct {
		Name string `json:"name"`
		Root string `json:"root"`
	}
	type projInfo struct {
		Name     string   `json:"name"`
		Schema   string   `json:"schema"`
		Queries  []string `json:"queries"`
		Validate bool     `json:"validate"`
		Names    int      `json:"projector_names"`
	}
	var out struct {
		Schemas     []schemaInfo `json:"schemas"`
		Projections []projInfo   `json:"projections"`
	}
	for name, d := range s.schemas {
		out.Schemas = append(out.Schemas, schemaInfo{Name: name, Root: d.Root()})
	}
	sort.Slice(out.Schemas, func(i, j int) bool { return out.Schemas[i].Name < out.Schemas[j].Name })
	for name, np := range s.projections {
		out.Projections = append(out.Projections, projInfo{
			Name: name, Schema: np.schema, Queries: np.queries,
			Validate: np.validate, Names: len(np.p.Names()),
		})
	}
	sort.Slice(out.Projections, func(i, j int) bool { return out.Projections[i].Name < out.Projections[j].Name })
	writeJSON(w, out)
}

// errorTrailer carries a prune error that surfaced after response bytes
// were already streamed, when the status line is long gone.
const errorTrailer = "X-Xmlprojd-Error"

// headerDocDigest carries the document's content digest. The server
// returns it alongside every cache-eligible response; a client that
// echoes it (with If-None-Match) on a later request lets the server
// answer 304 without reading the body at all, and it is what makes
// HEAD /prune addressable without a body.
const headerDocDigest = "X-Doc-Digest"

// headerXCache reports how the result cache treated the request: HIT,
// MISS, or BYPASS (streaming/unsized bodies, which the cache does not
// cover).
const headerXCache = "X-Cache"

// etagMatch reports whether an If-None-Match header value matches the
// given strong ETag. Weak prefixes are ignored — the cache's ETags are
// strong and byte-exact, so W/"x" and "x" name the same bytes here.
func etagMatch(ifNoneMatch, etag string) bool {
	if ifNoneMatch == "" || etag == "" {
		return false
	}
	for _, part := range strings.Split(ifNoneMatch, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// statusClientGone is nginx's non-standard "client closed request";
// nothing can be delivered, the code only exists for logs and metrics.
const statusClientGone = 499

// isTimeout reports whether err is an i/o timeout from the armed
// connection read deadline (as opposed to the request context's
// deadline, which errors.Is catches directly).
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// handlePrune streams the request body through the pruner and the
// pruned document back. The serial path holds O(depth) state, never the
// document.
func (s *Server) handlePrune(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.m.requests.Add(1)

	np, errStatus, errMsg := s.resolve(r)
	if np == nil {
		s.m.badRequests.Add(1)
		http.Error(w, errMsg, errStatus)
		s.logRequest(r, errStatus, 0, 0, xmlproj.PruneAuto, xmlproj.ParallelStages{}, xmlproj.PipelineStages{}, time.Since(start), "", errors.New(errMsg))
		return
	}

	// Body-free revalidation: a client that echoes the digest from a
	// prior response can 304 on the ETag alone — before admission
	// control, before a single body byte is read. The digest pins the
	// exact document bytes, so the match is as strong as re-digesting.
	if dig := r.Header.Get(headerDocDigest); dig != "" {
		if etag := s.eng.ResultETag(np.p, dig, np.validate); etagMatch(r.Header.Get("If-None-Match"), etag) {
			s.m.cache304.Add(1)
			w.Header().Set("ETag", etag)
			w.Header().Set(headerDocDigest, dig)
			w.Header().Set(headerXCache, "HIT")
			w.WriteHeader(http.StatusNotModified)
			s.logRequest(r, http.StatusNotModified, 0, 0, xmlproj.PruneAuto, xmlproj.ParallelStages{}, xmlproj.PipelineStages{}, time.Since(start), "revalidated", nil)
			return
		}
	}

	if s.maxBody > 0 && r.ContentLength > s.maxBody {
		s.m.rejectedLarge.Add(1)
		http.Error(w, fmt.Sprintf("request body %d bytes exceeds limit %d", r.ContentLength, s.maxBody), http.StatusRequestEntityTooLarge)
		s.logRequest(r, http.StatusRequestEntityTooLarge, 0, 0, xmlproj.PruneAuto, xmlproj.ParallelStages{}, xmlproj.PipelineStages{}, time.Since(start), "", errors.New("content-length over limit"))
		return
	}

	if !s.admit(r.Context()) {
		s.m.rejectedBusy.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server at concurrency limit", http.StatusTooManyRequests)
		s.logRequest(r, http.StatusTooManyRequests, 0, 0, xmlproj.PruneAuto, xmlproj.ParallelStages{}, xmlproj.PipelineStages{}, time.Since(start), "", errors.New("admission rejected"))
		return
	}
	defer func() { <-s.sem }()
	s.m.inFlight.Add(1)
	defer s.m.inFlight.Add(-1)

	ctx := r.Context()
	var rc *http.ResponseController
	if s.opts.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.RequestTimeout)
		defer cancel()
		// The context only gates the gaps between reads; a read already
		// blocked on a stalled body can outlive it. Arm the connection
		// deadlines too, so a blocked read (or a write to a client that
		// stopped draining) fails with an i/o timeout.
		rc = http.NewResponseController(w)
		deadline := time.Now().Add(s.opts.RequestTimeout)
		_ = rc.SetReadDeadline(deadline)
		_ = rc.SetWriteDeadline(deadline)
	}

	var src io.Reader = r.Body
	if s.maxBody > 0 {
		src = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	body := &meteredBody{r: src, size: r.ContentLength}

	if s.maxGather > 0 && body.size > 0 && body.size <= s.maxGather {
		s.pruneGathered(w, r, np, body, ctx, rc, start)
		return
	}

	// The pruner writes while the body is still arriving. Without full
	// duplex, net/http discards what is unread of the body at the first
	// flush and the prune ends early on a read error. A writer that
	// cannot do it (HTTP/2, a recorder) never needed it.
	_ = http.NewResponseController(w).EnableFullDuplex()

	// Headers must be final before the first body byte: declare the
	// error trailer now, since a mid-stream failure can no longer change
	// the status code.
	w.Header().Set("Content-Type", "application/xml")
	w.Header().Set("Trailer", errorTrailer)
	// The streaming path never holds the whole document, so there is
	// nothing to digest or cache — say so explicitly, so clients can tell
	// a bypass from a cache-disabled server.
	cacheAttr := ""
	if s.eng.ResultCacheEnabled() {
		w.Header().Set(headerXCache, "BYPASS")
		cacheAttr = "bypass"
	}

	cw := &countingResponseWriter{rw: w}
	// Stream the pruned bytes out as they are produced: both the scanner
	// and the pipelined engine (auto-selected here at a worker budget of
	// at least 4) emit long before the document ends, so flushing after
	// each pruner write gives the client a first byte while the rest is
	// still being read and pruned.
	var dst io.Writer = cw
	if f, ok := w.(http.Flusher); ok {
		dst = &flushWriter{w: cw, f: f}
	}
	var det xmlproj.ParallelStages
	var pdet xmlproj.PipelineStages
	chosen := xmlproj.PruneAuto
	stats, err := np.p.PruneStreamOpts(dst, body, xmlproj.StreamOptions{
		Validate:     np.validate,
		MaxTokenSize: s.opts.MaxTokenSize,
		IntraWorkers: s.intraWorkers,
		Context:      ctx,
		Detail:       &det,
		Pipeline:     &pdet,
		Chosen:       &chosen,
	})
	elapsed := time.Since(start)

	if rc != nil {
		// Clear the prune deadlines so the error response (written after
		// an expired deadline) still reaches the client.
		_ = rc.SetReadDeadline(time.Time{})
		_ = rc.SetWriteDeadline(time.Time{})
	}

	status := http.StatusOK
	if err != nil {
		status = s.classifyPruneErr(err)
		if cw.wrote {
			// Bytes are out; the only channel left is the trailer.
			w.Header().Set(errorTrailer, err.Error())
		} else {
			w.Header().Del("Trailer")
			http.Error(w, err.Error(), status)
		}
	}
	s.finish(r, status, body, stats, chosen, det, pdet, elapsed, cacheAttr, err)
}

// gatherBufPool recycles the request-body buffers of the span-gather
// path; maxPooledGatherBuf keeps an occasional huge body (a raised
// MaxGatherBytes) from pinning its buffer in the pool forever.
var gatherBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledGatherBuf = DefaultMaxGatherBytes

// pruneGathered serves a body of known, bounded length on the
// span-gather path: the body is buffered once, pruned with zero output
// copies (prune output is a gather list over the request buffer), and
// the response carries a real Content-Length. Because nothing is
// written before the prune finishes, errors get a clean pre-write
// status — no trailer.
func (s *Server) pruneGathered(w http.ResponseWriter, r *http.Request, np *namedProjection, body *meteredBody, ctx context.Context, rc *http.ResponseController, start time.Time) {
	buf := gatherBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.Grow(int(body.size))
	_, err := buf.ReadFrom(body)

	var det xmlproj.ParallelStages
	chosen := xmlproj.PruneAuto
	var stats xmlproj.PruneStats
	var res *xmlproj.PruneResult
	var info xmlproj.CacheInfo
	var notModified bool
	if err == nil {
		sopts := xmlproj.StreamOptions{
			Validate:     np.validate,
			MaxTokenSize: s.opts.MaxTokenSize,
			IntraWorkers: s.intraWorkers,
			Context:      ctx,
			Detail:       &det,
			Chosen:       &chosen,
		}
		if digest, ok := s.eng.DigestBytes(buf.Bytes()); ok {
			// The body is in hand and digested; if the client already
			// holds exactly this pruned entity, skip the prune and send
			// nothing back.
			etag := s.eng.ResultETag(np.p, digest, np.validate)
			if etagMatch(r.Header.Get("If-None-Match"), etag) {
				notModified = true
				info = xmlproj.CacheInfo{Enabled: true, Hit: true, Digest: digest, ETag: etag}
			} else {
				res, info, err = s.eng.PruneGatherDigest(np.p, buf.Bytes(), digest, sopts)
			}
		} else {
			res, err = np.p.PruneGather(buf.Bytes(), sopts)
		}
		if res != nil {
			stats = res.Stats
		}
	}
	elapsed := time.Since(start)

	if rc != nil {
		// Clear the prune deadlines so the response (possibly written
		// after an expired deadline) still reaches the client.
		_ = rc.SetReadDeadline(time.Time{})
		_ = rc.SetWriteDeadline(time.Time{})
	}

	cacheAttr := ""
	status := http.StatusOK
	switch {
	case err != nil:
		status = s.classifyPruneErr(err)
		http.Error(w, err.Error(), status)
	case notModified:
		s.m.cache304.Add(1)
		status = http.StatusNotModified
		w.Header().Set("ETag", info.ETag)
		w.Header().Set(headerDocDigest, info.Digest)
		w.Header().Set(headerXCache, "HIT")
		w.WriteHeader(status)
		cacheAttr = "revalidated"
	default:
		s.m.gatherPrunes.Add(1)
		if info.Enabled {
			w.Header().Set("ETag", info.ETag)
			w.Header().Set(headerDocDigest, info.Digest)
			if info.Hit {
				s.m.cacheHits.Add(1)
				w.Header().Set(headerXCache, "HIT")
				cacheAttr = "hit"
			} else {
				s.m.cacheMisses.Add(1)
				w.Header().Set(headerXCache, "MISS")
				cacheAttr = "miss"
			}
		}
		w.Header().Set("Content-Type", "application/xml")
		w.Header().Set("Content-Length", strconv.FormatInt(res.Len(), 10))
		if _, werr := res.WriteTo(w); werr != nil {
			// The status line is out; record the failure for logs and
			// metrics. A write error here means the client stopped
			// reading, so classify accordingly.
			err = werr
			status = s.classifyPruneErr(werr)
		}
		res.Close()
	}
	// The gather result referenced buf until Close; only now may the
	// buffer be reused.
	if buf.Cap() <= maxPooledGatherBuf {
		gatherBufPool.Put(buf)
	}
	s.finish(r, status, body, stats, chosen, det, xmlproj.PipelineStages{}, elapsed, cacheAttr, err)
}

// handlePruneHead answers HEAD /prune from the result cache alone: no
// body is read and no prune runs. The client names the document by
// digest (X-Doc-Digest, as returned by a prior POST) and the projection
// by the usual query parameters; the response carries the strong ETag
// and, when the pruned output is cached right now, X-Cache: HIT with
// its Content-Length. With If-None-Match it degenerates to a pure
// revalidation probe (304 on match).
func (s *Server) handlePruneHead(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.m.requests.Add(1)
	s.m.cacheHead.Add(1)

	np, errStatus, errMsg := s.resolve(r)
	if np == nil {
		s.m.badRequests.Add(1)
		http.Error(w, errMsg, errStatus)
		s.logRequest(r, errStatus, 0, 0, xmlproj.PruneAuto, xmlproj.ParallelStages{}, xmlproj.PipelineStages{}, time.Since(start), "", errors.New(errMsg))
		return
	}
	dig := r.Header.Get(headerDocDigest)
	var msg string
	switch {
	case !s.eng.ResultCacheEnabled():
		msg = "HEAD /prune needs the result cache, which is disabled"
	case dig == "":
		msg = "HEAD /prune needs an " + headerDocDigest + " header (as returned by a prior POST /prune)"
	}
	if msg != "" {
		s.m.badRequests.Add(1)
		http.Error(w, msg, http.StatusBadRequest)
		s.logRequest(r, http.StatusBadRequest, 0, 0, xmlproj.PruneAuto, xmlproj.ParallelStages{}, xmlproj.PipelineStages{}, time.Since(start), "", errors.New(msg))
		return
	}

	etag := s.eng.ResultETag(np.p, dig, np.validate)
	w.Header().Set("ETag", etag)
	w.Header().Set(headerDocDigest, dig)
	status := http.StatusOK
	var cacheAttr string
	switch {
	case etagMatch(r.Header.Get("If-None-Match"), etag):
		s.m.cache304.Add(1)
		status = http.StatusNotModified
		w.Header().Set(headerXCache, "HIT")
		cacheAttr = "revalidated"
	default:
		if n, ok := s.eng.CachedLen(np.p, dig, np.validate); ok {
			w.Header().Set(headerXCache, "HIT")
			w.Header().Set("Content-Type", "application/xml")
			w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
			cacheAttr = "hit"
		} else {
			w.Header().Set(headerXCache, "MISS")
			cacheAttr = "miss"
		}
	}
	w.WriteHeader(status)
	s.m.ok.Add(1)
	s.logRequest(r, status, 0, 0, xmlproj.PruneAuto, xmlproj.ParallelStages{}, xmlproj.PipelineStages{}, time.Since(start), cacheAttr, nil)
}

// classifyPruneErr maps a failed prune (or body read) to its HTTP
// status, bumping the matching outcome counter.
func (s *Server) classifyPruneErr(err error) int {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		s.m.rejectedLarge.Add(1)
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded), isTimeout(err):
		s.m.timeouts.Add(1)
		return http.StatusRequestTimeout
	case errors.Is(err, context.Canceled):
		s.m.clientGone.Add(1)
		return statusClientGone
	default:
		s.m.pruneFailures.Add(1)
		return http.StatusUnprocessableEntity
	}
}

// finish records the request's metrics and log line.
func (s *Server) finish(r *http.Request, status int, body *meteredBody, stats xmlproj.PruneStats, chosen xmlproj.PruneEngine, det xmlproj.ParallelStages, pdet xmlproj.PipelineStages, elapsed time.Duration, cache string, err error) {
	s.m.bytesIn.Add(body.n)
	s.m.bytesOut.Add(stats.BytesOut)
	s.m.latency.observe(elapsed)
	if pdet.Workers > 0 {
		s.m.pipelinedPrunes.Add(1)
		raise(&s.m.peakWindowBytes, pdet.PeakWindowBytes)
	}
	s.eng.RecordPrune(body.n, stats, det, pdet, err)
	if err == nil {
		s.m.ok.Add(1)
	}
	s.logRequest(r, status, body.n, stats.BytesOut, chosen, det, pdet, elapsed, cache, err)
}

// resolve maps the request to a projector: either a precompiled named
// projection or schema + query bunch (compiled here, inference cached
// by the engine). A nil return carries the HTTP status and message.
func (s *Server) resolve(r *http.Request) (*namedProjection, int, string) {
	q := r.URL.Query()
	validate := q.Get("validate") == "1" || q.Get("validate") == "true"
	if name := q.Get("projection"); name != "" {
		np, ok := s.projections[name]
		if !ok {
			return nil, http.StatusNotFound, fmt.Sprintf("unknown projection %q", name)
		}
		if q.Has("validate") && validate != np.validate {
			cp := *np
			cp.validate = validate
			return &cp, 0, ""
		}
		return np, 0, ""
	}
	schema := q.Get("schema")
	if schema == "" {
		return nil, http.StatusBadRequest, "missing schema or projection parameter"
	}
	d, ok := s.schemas[schema]
	if !ok {
		return nil, http.StatusNotFound, fmt.Sprintf("unknown schema %q", schema)
	}
	queries := q["q"]
	if len(queries) == 0 {
		return nil, http.StatusBadRequest, "missing q parameter (at least one query)"
	}
	p, err := s.infer(d, queries)
	if err != nil {
		return nil, http.StatusBadRequest, err.Error()
	}
	return &namedProjection{schema: schema, queries: queries, validate: validate, p: p}, 0, ""
}

// admit takes an admission slot, waiting up to AdmissionWait. It
// reports false when the server is at its concurrency limit (or the
// client gave up while queued).
func (s *Server) admit(ctx context.Context) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	if s.opts.AdmissionWait <= 0 {
		return false
	}
	t := time.NewTimer(s.opts.AdmissionWait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-t.C:
		return false
	case <-ctx.Done():
		return false
	}
}

// logRequest emits the per-request structured record. cache is the
// result-cache outcome ("hit", "miss", "bypass", "revalidated"; empty
// when the cache played no part).
func (s *Server) logRequest(r *http.Request, status int, bytesIn, bytesOut int64, eng xmlproj.PruneEngine, det xmlproj.ParallelStages, pdet xmlproj.PipelineStages, elapsed time.Duration, cache string, err error) {
	attrs := []any{
		"method", r.Method,
		"path", r.URL.Path,
		"query", r.URL.RawQuery,
		"remote", r.RemoteAddr,
		"status", status,
		"bytes_in", bytesIn,
		"bytes_out", bytesOut,
		"engine", eng.String(),
		"elapsed", elapsed,
	}
	if cache != "" {
		attrs = append(attrs, "cache", cache)
	}
	if det.Workers > 0 {
		attrs = append(attrs,
			"intra_workers", det.Workers,
			"intra_tasks", det.Tasks,
			"index_time", det.IndexTime,
			"prune_time", det.PruneTime,
			"stitch_time", det.StitchTime,
			"intra_fallback", det.Fallback,
		)
	}
	if pdet.Workers > 0 {
		attrs = append(attrs,
			"pipeline_workers", pdet.Workers,
			"pipeline_windows", pdet.Windows,
			"pipeline_tasks", pdet.Tasks,
			"peak_window_bytes", pdet.PeakWindowBytes,
			"pipeline_fallback", pdet.Fallback,
		)
	}
	if err != nil {
		attrs = append(attrs, "err", err.Error())
		s.log.Warn("prune", attrs...)
		return
	}
	s.log.Info("prune", attrs...)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// meteredBody counts bytes read and forwards the declared request size
// so engine auto-selection can consider the parallel pruner for large
// uploads of known length.
type meteredBody struct {
	r    io.Reader
	n    int64
	size int64 // Content-Length; <= 0 means unknown
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}

// InputSize implements prune.Sizer: the unread remainder of a body of
// declared length.
func (b *meteredBody) InputSize() (int64, bool) {
	if b.size <= 0 {
		return 0, false
	}
	return b.size - b.n, true
}

// flushWriter pushes each pruner write through to the client: the
// streaming path's output arrives in window-sized bursts long before
// the document ends (the pipelined engine emits windows as they are
// pruned), and flushing per write turns that into a real
// time-to-first-byte win instead of buffering until net/http feels
// like it. The pruner writes through a bufio layer, so writes here are
// already batched — the flush cost is per window, not per token.
type flushWriter struct {
	w io.Writer
	f http.Flusher
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if n > 0 {
		fw.f.Flush()
	}
	return n, err
}

// countingResponseWriter counts body bytes and records whether the
// response has started, which decides between a clean error status and
// the trailer path.
type countingResponseWriter struct {
	rw    http.ResponseWriter
	n     int64
	wrote bool
}

func (w *countingResponseWriter) Write(p []byte) (int, error) {
	w.wrote = true
	n, err := w.rw.Write(p)
	w.n += int64(n)
	return n, err
}
