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
// Content-Length; larger or chunked (unsized) bodies stream, and pruned
// output is flushed to the client as it is produced. The streaming path
// never buffers the whole document. Every prune is one serial pass of
// the scanner; the server's parallelism is across requests, bounded by
// the admission-control width.
//
// A request's validate=1 or validate=true (or a projection registered as
// validating, unless the request says validate=0 or validate=false) runs
// the prune with StreamOptions.Validate: DTD validation of what the
// projection keeps, and well-formedness checked everywhere; any other
// validate value is a 400.
// Without it a document is checked
// where the projection keeps and only balanced where it discards, so a
// 422 for a malformed document is then a statement about the part of it
// the client gets back.
//
// Admission control, body-size and token-size limits, and per-request
// deadlines make the service safe to expose to untrusted inputs;
// /debug/vars and the admin pprof listener make it observable.
//
// Defended by: `serve_cold`, `serve_warm` and `serve_stream`.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
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
	// pruned outputs. Gather-path requests for a repeat (document,
	// projection, validate) triple are served from cached bytes with a
	// strong ETag, and clients holding the ETag revalidate body-free via
	// If-None-Match + X-Doc-Digest. Zero means
	// xmlproj.DefaultResultCacheBytes (256 MiB); negative disables the
	// cache.
	ResultCacheBytes int64
	// Logger receives one structured record per /prune request. Nil
	// means slog.Default().
	Logger *slog.Logger
}

// Server serves streaming projection over HTTP. Configure it with
// AddSchema/AddProjection before serving; the handlers themselves are
// safe for any number of concurrent requests.
type Server struct {
	opts        Options
	eng         *xmlproj.Engine
	schemas     map[string]*xmlproj.DTD
	projections map[string]*namedProjection
	sem         chan struct{}
	maxBody     int64
	maxGather   int64
	log         *slog.Logger
	m           metrics
	lastBuf     atomic.Pointer[gatherBuf] // see gatherBufPool
}

// namedProjection is a resolved projector: one precompiled at startup,
// addressable by name so hot workloads skip query compilation entirely,
// or one a request spelled out with schema= and q=.
type namedProjection struct {
	schema   string
	queries  []string
	validate bool
	p        *xmlproj.Projector
}

// New returns a server with the given options and no schemas yet.
func New(opts Options) *Server {
	resultCache := opts.ResultCacheBytes
	if resultCache == 0 {
		resultCache = xmlproj.DefaultResultCacheBytes
	}
	eng := xmlproj.NewEngine(xmlproj.EngineOptions{ResultCacheBytes: resultCache})
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
		log:         logger,
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

// handlePrune streams the request body through the pruner and the
// pruned document back. The serial path holds O(depth) state, never the
// document.
func (s *Server) handlePrune(w http.ResponseWriter, r *http.Request) {
	x := s.begin(w, r)
	defer x.done()

	np, status, msg := s.resolve(r)
	if np == nil {
		x.reject(status, msg)
		return
	}

	// Body-free revalidation: a client that echoes the digest from a
	// prior response can 304 on the ETag alone — before admission
	// control, before a single body byte is read. The digest pins the
	// exact document bytes, so the match is as strong as re-digesting.
	if dig := r.Header.Get(headerDocDigest); dig != "" {
		if etag := s.eng.ResultETag(np.p, dig, np.validate); etagMatch(r.Header.Get("If-None-Match"), etag) {
			x.notModified(etag, dig)
			return
		}
	}

	if !x.admit() {
		return
	}
	if s.maxGather > 0 && x.body.size > 0 && x.body.size <= s.maxGather {
		s.pruneGathered(x, np)
	} else {
		s.pruneStreamed(x, np)
	}
}

// pruneStreamed serves a large or unsized body: the pruner writes while
// the body is still arriving, and nothing is buffered whole.
func (s *Server) pruneStreamed(x *exchange, np *namedProjection) {
	// Without full duplex, net/http discards what is unread of the body
	// at the first flush and the prune ends early on a read error. A
	// writer that cannot do it (HTTP/2, a recorder) never needed it.
	_ = http.NewResponseController(&x.w).EnableFullDuplex()

	// Headers must be final before the first body byte: declare the
	// error trailer now, since a mid-stream failure can no longer change
	// the status code.
	h := x.w.Header()
	h.Set("Content-Type", "application/xml")
	h.Set("Trailer", errorTrailer)
	// The streaming path never holds the whole document, so there is
	// nothing to digest or cache — say so explicitly, so clients can tell
	// a bypass from a cache-disabled server.
	if s.eng.ResultCacheEnabled() {
		h.Set(headerXCache, "BYPASS")
		x.cache = "bypass"
	}

	// Push each pruner write through to the client: the scanner emits
	// long before the document ends, so this is a real time-to-first-byte
	// win. The pruner writes through a bufio layer, so the flush cost is
	// per buffer, not per token.
	x.w.flush, _ = x.w.ResponseWriter.(http.Flusher)
	x.stats, x.err = np.p.PruneStreamOpts(&x.w, &x.body, x.streamOptions(np.validate))
	switch {
	case x.err == nil:
	case x.w.code != 0:
		// Bytes are out; the only channel left is the trailer.
		h.Set(errorTrailer, x.err.Error())
	default:
		// Nothing is out yet: done sends a clean error status.
		h.Del("Trailer")
	}
	// Full duplex left the body to this handler, and a failed prune leaves
	// some of it unread. Settle it here: Close reads on for the end of the
	// body, up to net/http's 256 KiB, and past that has the connection
	// closed after the reply. Left to net/http, the same drain runs after
	// the handler, reaches the end of the body, starts the connection's
	// background read — and the next request's first read panics on it
	// ("invalid concurrent Body.Read call").
	_ = x.r.Body.Close()
}

// pruneGathered serves a body of known, bounded length on the
// span-gather path: the body is buffered once, pruned with zero output
// copies (prune output is a gather list over the request buffer), and
// the response carries a real Content-Length. Because nothing is
// written before the prune finishes, errors get a clean pre-write
// status — no trailer.
func (s *Server) pruneGathered(x *exchange, np *namedProjection) {
	data, digest := x.readBody()
	if x.err != nil {
		return
	}
	// The body is in hand and was digested as it arrived (an empty digest
	// and ETag when the result cache is off); if the client already holds
	// exactly this pruned entity, skip the prune and send nothing back.
	if etag := s.eng.ResultETag(np.p, digest, np.validate); etagMatch(x.r.Header.Get("If-None-Match"), etag) {
		x.notModified(etag, digest)
		return
	}
	res, info, err := s.eng.PruneGatherDigest(np.p, data, digest, x.streamOptions(np.validate))
	if err != nil {
		x.err = err
		return
	}
	// The gather result references the request buffer until Close.
	defer res.Close()
	x.stats = res.Stats
	x.disarm()

	s.m.gatherPrunes.Add(1)
	if info.Enabled {
		x.entity(info.ETag, info.Digest, info.Hit)
		if info.Hit {
			s.m.cacheHits.Add(1)
		} else {
			s.m.cacheMisses.Add(1)
		}
	}
	x.w.Header().Set("Content-Type", "application/xml")
	x.w.Header().Set("Content-Length", strconv.FormatInt(res.Len(), 10))
	// A write error means the client stopped reading. The status line is
	// out; done records the failure for logs and metrics.
	_, x.err = res.WriteTo(&x.w)
}

// handlePruneHead answers HEAD /prune from the result cache alone: no
// body is read and no prune runs. The client names the document by
// digest (X-Doc-Digest, as returned by a prior POST) and the projection
// by the usual query parameters; the response carries the strong ETag
// and, when the pruned output is cached right now, X-Cache: HIT with
// its Content-Length. With If-None-Match it degenerates to a pure
// revalidation probe (304 on match).
func (s *Server) handlePruneHead(w http.ResponseWriter, r *http.Request) {
	x := s.begin(w, r)
	defer x.done()
	s.m.cacheHead.Add(1)

	np, status, msg := s.resolve(r)
	if np == nil {
		x.reject(status, msg)
		return
	}
	dig := r.Header.Get(headerDocDigest)
	etag := s.eng.ResultETag(np.p, dig, np.validate)
	switch {
	case !s.eng.ResultCacheEnabled():
		x.reject(http.StatusBadRequest, "HEAD /prune needs the result cache, which is disabled")
		return
	case dig == "":
		x.reject(http.StatusBadRequest, "HEAD /prune needs an "+headerDocDigest+" header (as returned by a prior POST /prune)")
		return
	case etag == "":
		x.reject(http.StatusBadRequest, fmt.Sprintf("HEAD /prune: %s %q is not a document digest (as returned by a prior POST /prune)", headerDocDigest, dig))
		return
	}

	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		x.notModified(etag, dig)
		return
	}
	n, cached := s.eng.CachedLen(np.p, dig, np.validate)
	x.entity(etag, dig, cached)
	if cached {
		x.w.Header().Set("Content-Type", "application/xml")
		x.w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	}
	x.w.WriteHeader(http.StatusOK)
}

// resolve maps the request to a projector: either a precompiled named
// projection or schema + query bunch (compiled here, inference cached
// by the engine). validate is 1 or true, 0 or false, given once; any
// other value, or a second one, is a 400, never a silent "no": it would
// turn off the validation of a projection registered as validating. A
// nil return carries the HTTP status and message.
func (s *Server) resolve(r *http.Request) (*namedProjection, int, string) {
	q := r.URL.Query()
	if vs := q["validate"]; len(vs) > 1 {
		return nil, http.StatusBadRequest, fmt.Sprintf("validate given %d times: give it once", len(vs))
	}
	validate := false
	switch v := q.Get("validate"); v {
	case "1", "true":
		validate = true
	case "0", "false":
	default:
		if q.Has("validate") {
			return nil, http.StatusBadRequest, fmt.Sprintf("validate=%q: want 1, true, 0 or false", v)
		}
	}
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

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
