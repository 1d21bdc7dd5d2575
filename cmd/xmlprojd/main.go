// Command xmlprojd serves type-based XML projection over HTTP: a
// long-lived pruning service in front of query engines, running the
// paper's load-time filter (§6) for many concurrent clients.
//
// Usage:
//
//	xmlprojd -schema auction=auction.dtd \
//	         -projection people='auction://person[homepage]/name' \
//	         -listen :8080 -admin 127.0.0.1:6060
//
//	curl -X POST --data-binary @auction.xml \
//	  'http://localhost:8080/prune?schema=auction&q=//person/name'
//	curl -X POST --data-binary @auction.xml \
//	  'http://localhost:8080/prune?projection=people'
//
// POST /prune streams the body through the one-pass pruner and streams
// the pruned document back. With validate=1 the document is validated
// against the schema and checked for well-formedness throughout, and
// anything wrong with it is a 422; without, the prune guarantees
// well-formedness where the projection keeps and balanced tags where it
// discards — a bad name, attribute, entity or character inside a
// discarded subtree is not seen. GET /debug/vars exports engine and server
// counters; pprof lives on the loopback-only admin listener. On SIGTERM
// the server stops accepting work and drains in-flight prunes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xmlproj"
	"xmlproj/internal/server"
)

type stringList []string

func (l *stringList) String() string     { return fmt.Sprint(*l) }
func (l *stringList) Set(s string) error { *l = append(*l, s); return nil }

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "xmlprojd:", err)
		os.Exit(1)
	}
}

// run builds and serves until ctx is cancelled, then drains. onReady, if
// non-nil, receives the bound addresses once both listeners accept —
// tests use it to reach ephemeral ports.
func run(ctx context.Context, args []string, stderr io.Writer, onReady func(mainAddr, adminAddr net.Addr)) error {
	fs := flag.NewFlagSet("xmlprojd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", ":8080", "main listen address")
	admin := fs.String("admin", "127.0.0.1:6060", "admin listen address (pprof + /debug/vars), loopback only; empty disables")
	root := fs.String("root", "", "root element override applied to every schema (default: first declared)")
	maxBody := fs.Int64("max-body", server.DefaultMaxBodyBytes, "request body limit in bytes (negative = unlimited)")
	maxToken := fs.Int("max-token", 0, "scanner token-size limit in bytes (0 = default 8 MiB)")
	maxGather := fs.Int64("max-gather", server.DefaultMaxGatherBytes, "span-gather fast-path limit in bytes: bodies of known length up to this are buffered and pruned in place (negative = disabled)")
	maxConcurrent := fs.Int("max-concurrent", 0, "concurrent prune limit; also divides the intra-document worker budget (0 = GOMAXPROCS)")
	admissionWait := fs.Duration("admission-wait", 100*time.Millisecond, "how long a request queues for an admission slot before 429")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request prune deadline, 408 on expiry (0 = none)")
	resultCache := fs.Int64("result-cache", xmlproj.DefaultResultCacheBytes, "byte budget for the content-addressed cache of pruned outputs; repeat documents on the gather path are served from cache with a strong ETag (0 or negative = disabled)")
	readHeaderTimeout := fs.Duration("read-header-timeout", 10*time.Second, "http server read-header timeout")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "http server keep-alive idle timeout")
	writeTimeout := fs.Duration("write-timeout", 0, "http server write timeout; bounds the whole response, so leave 0 unless responses are small")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain window for in-flight prunes")
	logText := fs.Bool("log-text", false, "log in text instead of JSON")
	var schemas, projections stringList
	fs.Var(&schemas, "schema", "schema to serve, as name=path (or just a path; the name is the file base); .xsd parses as XML Schema; repeatable")
	fs.Var(&projections, "projection", "projection precompiled at startup, as name=schema:query[;query...]; repeatable")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(schemas) == 0 {
		fs.Usage()
		return fmt.Errorf("at least one -schema is required")
	}

	var h slog.Handler
	if *logText {
		h = slog.NewTextHandler(stderr, nil)
	} else {
		h = slog.NewJSONHandler(stderr, nil)
	}
	logger := slog.New(h)

	cacheBudget := *resultCache
	if cacheBudget <= 0 {
		cacheBudget = -1 // Options treats 0 as "default"; the flag's 0 means off
	}
	srv := server.New(server.Options{
		MaxBodyBytes:     *maxBody,
		MaxTokenSize:     *maxToken,
		MaxGatherBytes:   *maxGather,
		MaxConcurrent:    *maxConcurrent,
		AdmissionWait:    *admissionWait,
		RequestTimeout:   *reqTimeout,
		ResultCacheBytes: cacheBudget,
		Logger:           logger,
	})
	for _, spec := range schemas {
		name, d, err := loadSchema(spec, *root)
		if err != nil {
			return err
		}
		if err := srv.AddSchema(name, d); err != nil {
			return err
		}
	}
	for _, spec := range projections {
		name, schema, queries, err := parseProjectionSpec(spec)
		if err != nil {
			return err
		}
		if err := srv.AddProjection(name, schema, false, queries...); err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		IdleTimeout:       *idleTimeout,
		WriteTimeout:      *writeTimeout,
	}

	var adminSrv *http.Server
	var adminLn net.Listener
	if *admin != "" {
		if err := requireLoopback(*admin); err != nil {
			ln.Close()
			return err
		}
		adminLn, err = net.Listen("tcp", *admin)
		if err != nil {
			ln.Close()
			return err
		}
		adminSrv = &http.Server{Handler: srv.AdminHandler(), ReadHeaderTimeout: *readHeaderTimeout}
	}

	errc := make(chan error, 2)
	go func() { errc <- httpSrv.Serve(ln) }()
	if adminSrv != nil {
		go func() { errc <- adminSrv.Serve(adminLn) }()
	}
	var adminAddr net.Addr
	if adminLn != nil {
		adminAddr = adminLn.Addr()
		logger.Info("admin listening", "addr", adminAddr.String())
	}
	logger.Info("listening", "addr", ln.Addr().String(), "schemas", len(schemas), "projections", len(projections))
	if onReady != nil {
		onReady(ln.Addr(), adminAddr)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Stop accepting, drain in-flight prunes, then return. A prune still
	// running when the drain window closes is cut off by Shutdown's
	// context.
	logger.Info("shutting down", "drain", *drain)
	shCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	serr := httpSrv.Shutdown(shCtx)
	if adminSrv != nil {
		if aerr := adminSrv.Shutdown(shCtx); serr == nil {
			serr = aerr
		}
	}
	return serr
}

// loadSchema parses one -schema spec: "name=path" or a bare path whose
// base name (extension stripped) becomes the schema name.
func loadSchema(spec, root string) (string, *xmlproj.DTD, error) {
	name, path, ok := strings.Cut(spec, "=")
	if !ok {
		path = spec
		base := path
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		if i := strings.LastIndexByte(base, '.'); i > 0 {
			base = base[:i]
		}
		name = base
	}
	if name == "" || path == "" {
		return "", nil, fmt.Errorf("bad -schema %q: want name=path", spec)
	}
	d, err := xmlproj.ParseSchemaFile(path, root)
	if err != nil {
		return "", nil, fmt.Errorf("schema %s: %w", name, err)
	}
	return name, d, nil
}

// parseProjectionSpec parses one -projection spec:
// "name=schema:query[;query...]".
func parseProjectionSpec(spec string) (name, schema string, queries []string, err error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return "", "", nil, fmt.Errorf("bad -projection %q: want name=schema:query[;query...]", spec)
	}
	schema, qs, ok := strings.Cut(rest, ":")
	if !ok || schema == "" || qs == "" {
		return "", "", nil, fmt.Errorf("bad -projection %q: want name=schema:query[;query...]", spec)
	}
	for _, q := range strings.Split(qs, ";") {
		if q = strings.TrimSpace(q); q != "" {
			queries = append(queries, q)
		}
	}
	if len(queries) == 0 {
		return "", "", nil, fmt.Errorf("bad -projection %q: no queries", spec)
	}
	return name, schema, queries, nil
}

// requireLoopback rejects admin addresses that would expose pprof
// beyond the local host.
func requireLoopback(addr string) error {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("bad -admin %q: %w", addr, err)
	}
	if host == "localhost" {
		return nil
	}
	if ip := net.ParseIP(host); ip != nil && ip.IsLoopback() {
		return nil
	}
	return fmt.Errorf("-admin %q is not a loopback address; pprof must stay local", addr)
}
