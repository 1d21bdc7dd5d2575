package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// recordingHandler hands every log record to a channel. done emits its
// record last, so receiving one also means the request's counters are
// final — a client can see the whole response before the handler
// returns.
type recordingHandler chan slog.Record

func (h recordingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h recordingHandler) Handle(_ context.Context, r slog.Record) error {
	h <- r.Clone()
	return nil
}
func (h recordingHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h recordingHandler) WithGroup(string) slog.Handler      { return h }

// next waits for one request's log record and returns its attributes.
func (h recordingHandler) next(t *testing.T) map[string]slog.Value {
	t.Helper()
	select {
	case r := <-h:
		attrs := make(map[string]slog.Value)
		r.Attrs(func(a slog.Attr) bool { attrs[a.Key] = a.Value; return true })
		return attrs
	case <-time.After(10 * time.Second):
		t.Fatal("no log record: the request never reached done")
		return nil
	}
}

// rawRequest writes req verbatim on a fresh connection, half-closes it —
// which is how a body shorter than its declared length ends — and
// returns the status of whatever the server answered.
func rawRequest(t *testing.T, ts *httptest.Server, req string) int {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading the response: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// do sends one request built from its parts and drains the response.
func do(t *testing.T, method, url string, body io.Reader, header ...string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp
}

// lockedBuffer is a log destination written from serve goroutines.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// chunked hides a reader's size, so the upload goes out chunked and
// takes the streamed route.
func chunked(s string) io.Reader { return struct{ io.Reader }{strings.NewReader(s)} }

// outcomeCounters are the /debug/vars keys of the seven counters that
// partition requests.
var outcomeCounters = []string{"ok", "bad_requests", "rejected_too_large", "rejected_concurrency", "timeouts", "prune_failures", "client_gone"}

// TestOutcomeCountersPartitionRequests drives every exit of every route
// and checks, after each scenario, what done promises: every request
// landed in exactly one outcome counter (the one its status names), was
// observed in the latency histogram once, and left one log record with
// the documented attributes.
func TestOutcomeCountersPartitionRequests(t *testing.T) {
	const titles = "/prune?projection=titles"
	const multi = "/multiprune?schema=bib&proj=%2F%2Fbook%2Fauthor&proj=%2F%2Fbook%2Ftitle"
	big := "<bib>" + strings.Repeat("<book><title>t</title><author>a</author></book>", 20) + "</bib>"
	// Enough kept output to pass the pruner's write buffer and the first
	// flush before the undeclared element fails the prune.
	lateRow := "<book><title>" + strings.Repeat("t", 100) + "</title><author>a</author></book>"
	lateFailure := "<bib>" + strings.Repeat(lateRow, 4000) + "<unknown/></bib>"

	// want is one request's log status and cache attribute; the status
	// names the outcome counter.
	type want struct {
		status int
		cache  string
	}
	// cached posts bibDoc once (a MISS) and returns the entity's ETag and
	// the document's digest.
	cached := func(t *testing.T, url string) (etag, digest string) {
		resp := do(t, "POST", url+titles, strings.NewReader(bibDoc))
		return resp.Header.Get("ETag"), resp.Header.Get(headerDocDigest)
	}
	cases := []struct {
		name  string
		opts  Options
		drive func(t *testing.T, ts *httptest.Server)
		want  []want
	}{
		{"400", Options{}, func(t *testing.T, ts *httptest.Server) {
			do(t, "POST", ts.URL+"/prune?schema=bib", strings.NewReader(bibDoc))
		}, []want{{400, ""}}},
		{"404", Options{}, func(t *testing.T, ts *httptest.Server) {
			do(t, "POST", ts.URL+"/prune?projection=nope", strings.NewReader(bibDoc))
		}, []want{{404, ""}}},
		{"413 declared", Options{MaxBodyBytes: 256}, func(t *testing.T, ts *httptest.Server) {
			do(t, "POST", ts.URL+titles, strings.NewReader(big))
		}, []want{{413, ""}}},
		{"413 streamed", Options{MaxBodyBytes: 256}, func(t *testing.T, ts *httptest.Server) {
			do(t, "POST", ts.URL+titles, chunked(big))
		}, []want{{413, "bypass"}}},
		{"413 multiprune", Options{MaxBodyBytes: 256}, func(t *testing.T, ts *httptest.Server) {
			do(t, "POST", ts.URL+multi, chunked(big))
		}, []want{{413, ""}}},
		{"429", Options{MaxConcurrent: 1}, func(t *testing.T, ts *httptest.Server) {
			pr, pw := io.Pipe()
			held := make(chan struct{})
			go func() {
				defer close(held)
				req, _ := http.NewRequest("POST", ts.URL+titles, pr)
				if resp, err := http.DefaultClient.Do(req); err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
			pw.Write([]byte(bibDoc)) // the whole document, no EOF: the slot stays taken
			waitInFlight(t, ts, 1)
			if resp := do(t, "POST", ts.URL+titles, strings.NewReader(bibDoc)); resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			pw.Close()
			<-held
		}, []want{{429, ""}, {200, "bypass"}}},
		{"408", Options{RequestTimeout: 50 * time.Millisecond}, func(t *testing.T, ts *httptest.Server) {
			pr, pw := io.Pipe()
			defer pw.Close()
			go pw.Write([]byte("<bib><book><title>stall")) // never completes
			do(t, "POST", ts.URL+titles, pr)
		}, []want{{408, "bypass"}}},
		{"422 before the first byte", Options{}, func(t *testing.T, ts *httptest.Server) {
			do(t, "POST", ts.URL+titles, strings.NewReader("<bib><unknown/></bib>"))
		}, []want{{422, ""}}},
		{"422 in the trailer", Options{}, func(t *testing.T, ts *httptest.Server) {
			resp := do(t, "POST", ts.URL+titles, chunked(lateFailure))
			if resp.StatusCode != 200 || resp.Trailer.Get(errorTrailer) == "" {
				t.Errorf("status %d, trailer %q; want 200 and the error in the trailer", resp.StatusCode, resp.Trailer.Get(errorTrailer))
			}
		}, []want{{422, "bypass"}}},
		{"422 in the trailer, body unread", Options{}, func(t *testing.T, ts *httptest.Server) {
			// The prune fails after its first flush with the rest of the
			// body unsent or unread: a few rows, which the handler reads
			// on to the end of — the connection is reused, which is where
			// net/http's serve loop used to panic — and 1.4 MB, which it
			// gives up on so that the connection closes. Either way the
			// next request of that client is served.
			for _, rows := range []int{0, 10, 10000} {
				resp := do(t, "POST", ts.URL+titles, chunked(strings.Replace(lateFailure, "<unknown/>", "<unknown/>"+strings.Repeat(lateRow, rows), 1)))
				if resp.StatusCode != 200 || resp.Trailer.Get(errorTrailer) == "" {
					t.Errorf("%d rows unread: status %d, trailer %q; want 200 and the error in the trailer", rows, resp.StatusCode, resp.Trailer.Get(errorTrailer))
				}
				if rows > 10 {
					// The response could not say "Connection: close" any more,
					// so the client may still hold the connection as idle; a
					// POST on it would meet the close.
					http.DefaultClient.CloseIdleConnections()
				}
				if resp := do(t, "POST", ts.URL+titles, chunked(bibDoc)); resp.StatusCode != 200 {
					t.Errorf("%d rows unread: the request after it: status %d", rows, resp.StatusCode)
				}
			}
		}, []want{{422, "bypass"}, {200, "bypass"}, {422, "bypass"}, {200, "bypass"}, {422, "bypass"}, {200, "bypass"}}},
		{"499", Options{}, func(t *testing.T, ts *httptest.Server) {
			rawRequest(t, ts, "POST "+titles+" HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n<bib>")
		}, []want{{499, ""}}},
		{"499 on the response write", Options{}, func(t *testing.T, ts *httptest.Server) {
			// The client sees the response begin — so the prune is over —
			// and goes away with 2 MB of it unread, which two small socket
			// buffers do not take: the write that waits on them meets a
			// reset, or a broken pipe after it.
			doc := "<bib>" + strings.Repeat("<book><title>"+strings.Repeat("t", 100)+"</title><author>a</author></book>", 16000) + "</bib>"
			conn, err := net.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := conn.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
				t.Fatal(err)
			}
			if _, err := fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", titles, len(doc), doc); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := conn.Read(make([]byte, 1)); err != nil {
				t.Fatalf("reading the response: %v", err)
			}
		}, []want{{499, "miss"}}},
		{"200 MISS, HIT, BYPASS", Options{}, func(t *testing.T, ts *httptest.Server) {
			do(t, "POST", ts.URL+titles, strings.NewReader(bibDoc))
			do(t, "POST", ts.URL+titles, strings.NewReader(bibDoc))
			do(t, "POST", ts.URL+titles, chunked(bibDoc))
		}, []want{{200, "miss"}, {200, "hit"}, {200, "bypass"}}},
		{"200 with the cache off", Options{ResultCacheBytes: -1}, func(t *testing.T, ts *httptest.Server) {
			do(t, "POST", ts.URL+titles, strings.NewReader(bibDoc))
		}, []want{{200, ""}}},
		{"304 without a body", Options{}, func(t *testing.T, ts *httptest.Server) {
			etag, digest := cached(t, ts.URL)
			do(t, "POST", ts.URL+titles, nil, "If-None-Match", etag, headerDocDigest, digest)
		}, []want{{200, "miss"}, {304, "revalidated"}}},
		{"304 on the digested body", Options{}, func(t *testing.T, ts *httptest.Server) {
			etag, _ := cached(t, ts.URL)
			do(t, "POST", ts.URL+titles, strings.NewReader(bibDoc), "If-None-Match", etag)
		}, []want{{200, "miss"}, {304, "revalidated"}}},
		{"HEAD", Options{}, func(t *testing.T, ts *httptest.Server) {
			etag, digest := cached(t, ts.URL)
			do(t, "HEAD", ts.URL+titles, nil)
			do(t, "HEAD", ts.URL+titles, nil, headerDocDigest, digest)
			do(t, "HEAD", ts.URL+titles, nil, headerDocDigest, strings.Repeat("0", len(digest)))
			do(t, "HEAD", ts.URL+titles, nil, headerDocDigest, digest, "If-None-Match", etag)
		}, []want{{200, "miss"}, {400, ""}, {200, "hit"}, {200, "miss"}, {304, "revalidated"}}},
		{"multiprune", Options{}, func(t *testing.T, ts *httptest.Server) {
			do(t, "POST", ts.URL+multi, strings.NewReader(bibDoc))
			do(t, "POST", ts.URL+"/multiprune", strings.NewReader(bibDoc))
		}, []want{{200, "bypass"}, {400, ""}}},
		{"multiprune with one failed part", Options{}, func(t *testing.T, ts *httptest.Server) {
			// The title projector trips over <x/>; the author projector
			// discards title and delivers. The response is 200, the
			// request's outcome is the part's failure.
			resp := do(t, "POST", ts.URL+multi, strings.NewReader(`<bib><book><title>T<x/></title><author>A</author></book></bib>`))
			if resp.StatusCode != 200 {
				t.Errorf("status %d, want 200 with the verdicts in the parts", resp.StatusCode)
			}
		}, []want{{422, "bypass"}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			logs := make(recordingHandler, 16)
			opts := c.opts
			opts.Logger = slog.New(logs)
			s := newTestServer(t, opts)
			ts := httptest.NewUnstartedServer(s.Handler())
			// A send buffer set by hand is one the kernel no longer grows
			// (to megabytes, on loopback): what a client leaves unread makes
			// the server's write wait for it instead of vanishing into it.
			ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
				if st == http.StateNew {
					c.(*net.TCPConn).SetWriteBuffer(16 << 10)
				}
			}
			// What net/http itself has to say: a recovered panic of its
			// serve loop is logged here and nowhere else.
			var httpLog lockedBuffer
			ts.Config.ErrorLog = log.New(&httpLog, "", 0)
			ts.Start()
			defer func() {
				ts.Close() // every connection's serve loop has returned
				if s := httpLog.String(); s != "" {
					t.Errorf("net/http logged:\n%s", s)
				}
			}()
			c.drive(t, ts)

			wantIn := make(map[string]int64) // outcome counter → requests
			var got, wanted []string
			for _, w := range c.want {
				attrs := logs.next(t)
				for _, key := range []string{"method", "path", "query", "remote", "status", "bytes_in", "bytes_out", "engine", "elapsed"} {
					if _, ok := attrs[key]; !ok {
						t.Errorf("log record without %q: %v", key, attrs)
					}
				}
				if _, hasErr := attrs["err"]; hasErr != (attrs["status"].Int64() >= 400) {
					t.Errorf("log record: status %v, err attribute present = %v", attrs["status"], hasErr)
				}
				cache := "" // absent when the cache played no part
				if v, ok := attrs["cache"]; ok {
					cache = v.String()
				}
				got = append(got, fmt.Sprintf("%v %q", attrs["status"], cache))
				wanted = append(wanted, fmt.Sprintf("%d %q", w.status, w.cache))
				wantIn[outcomeName(w.status)]++
			}
			// Requests that overlap finish in either order.
			sort.Strings(got)
			sort.Strings(wanted)
			if fmt.Sprint(got) != fmt.Sprint(wanted) {
				t.Errorf("log records (status, cache) = %v, want %v", got, wanted)
			}
			select {
			case r := <-logs:
				t.Errorf("more than one log record per request: %v", r)
			default:
			}

			vars := s.m.snapshot()
			n := int64(len(c.want))
			var sum int64
			for _, name := range outcomeCounters {
				v := vars[name].(int64)
				sum += v
				if v != wantIn[name] {
					t.Errorf("%s = %d, want %d", name, v, wantIn[name])
				}
			}
			if requests := vars["requests"].(int64); requests != n || sum != n {
				t.Errorf("requests = %d, outcome counters sum to %d, want %d each", requests, sum, n)
			}
			if count := vars["latency"].(map[string]any)["count"].(int64); count != n {
				t.Errorf("latency.count = %d, want %d", count, n)
			}
			if inFlight := vars["in_flight"].(int64); inFlight != 0 {
				t.Errorf("in_flight = %d after every request finished", inFlight)
			}
		})
	}
}

// outcomeName is the /debug/vars key of the counter a request that
// finished with status belongs in.
func outcomeName(status int) string {
	switch {
	case status < 400:
		return "ok"
	case status == 413:
		return "rejected_too_large"
	case status == 429:
		return "rejected_concurrency"
	case status == 408:
		return "timeouts"
	case status == 422:
		return "prune_failures"
	case status == 499:
		return "client_gone"
	}
	return "bad_requests"
}

// TestDeclaredLengthDoesNotPresize: a Content-Length is a claim. A
// request that declares just under MaxBodyBytes and sends three bytes
// must not make the server allocate the declared size on either route
// (the /multiprune one did: 1 GiB per request before a byte arrived),
// ends as client_gone, and gives its admission slot back.
func TestDeclaredLengthDoesNotPresize(t *testing.T) {
	for _, url := range []string{"/prune?projection=titles", "/multiprune?projection=titles"} {
		logs := make(recordingHandler, 4)
		s := newTestServer(t, Options{Logger: slog.New(logs)})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		status := rawRequest(t, ts, fmt.Sprintf("POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n<bi", url, DefaultMaxBodyBytes-1))
		logs.next(t)
		runtime.ReadMemStats(&after)

		if status != statusClientGone {
			t.Errorf("%s: status %d, want %d", url, status, statusClientGone)
		}
		// One buffer of at most the gather bound; a race-detector build
		// allocates it twice (bytes.Buffer grows through append(nil, make…)).
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 3*DefaultMaxGatherBytes {
			t.Errorf("%s: the request allocated %d MiB for a 3-byte body", url, grew>>20)
		}
		if n := s.m.inFlight.Load(); n != 0 || len(s.sem) != 0 {
			t.Errorf("%s: in_flight = %d, %d admission slots taken after the request ended", url, n, len(s.sem))
		}
	}
}

// TestSequentialBodiesReuseOneBuffer: the requests of one keep-alive
// connection run one after another but not on one P, and a bare
// sync.Pool gives a buffer back only where it was put — each P grew a
// body-sized buffer of its own, again after every GC cycle. 200 sized
// POSTs of one 4 MB body must cost one body buffer on both gather
// routes: under 4 bodies' worth, since a race-detector build allocates
// the buffer twice and has sync.Pool drop a quarter of the transport's
// 32 KB copy buffers.
func TestSequentialBodiesReuseOneBuffer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	doc := func(n int) string {
		return `<bib><book><title>t</title><author>` + strings.Repeat("a", n) + `</author></book></bib>`
	}
	for _, url := range []string{"/prune?projection=titles", "/multiprune?projection=titles"} {
		s := newTestServer(t, Options{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		// allocated is what 200 sequential POSTs of body allocate, in
		// this process: client, server and all.
		allocated := func(body string) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 200; i++ {
				if resp := do(t, "POST", ts.URL+url, strings.NewReader(body)); resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: request %d: status %d", url, i, resp.StatusCode)
				}
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		big := doc(4 << 20)
		perRequest := allocated(doc(1)) // what a request costs besides its body
		if grew := allocated(big) - perRequest; grew >= 4*uint64(len(big)) {
			t.Errorf("%s: 200 sequential requests allocated %d MiB for their bodies, want under 4 bodies of %d MiB", url, grew>>20, len(big)>>20)
		}
	}
}

// TestTruncatedUploadIsClientGone: a body that ends before its declared
// length, or before its last chunk, is the client's transport failing —
// 499 and client_gone on every route, not a bad document (422,
// prune_failures).
func TestTruncatedUploadIsClientGone(t *testing.T) {
	for _, c := range []struct{ name, request string }{
		{"gathered", "POST /prune?projection=titles HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n<bib><book>"},
		{"streamed", "POST /prune?projection=titles HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\nb\r\n<bib><book>\r\n"},
		{"multiprune", "POST /multiprune?projection=titles HTTP/1.1\r\nHost: x\r\nContent-Length: 1000\r\n\r\n<bib><book>"},
	} {
		logs := make(recordingHandler, 4)
		s := newTestServer(t, Options{Logger: slog.New(logs)})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		status := rawRequest(t, ts, c.request)
		attrs := logs.next(t)
		if status != statusClientGone || attrs["status"].Int64() != statusClientGone {
			t.Errorf("%s: response status %d, logged %v (err %v); want %d", c.name, status, attrs["status"], attrs["err"], statusClientGone)
		}
		if gone, failed := s.m.clientGone.Load(), s.m.pruneFailures.Load(); gone != 1 || failed != 0 {
			t.Errorf("%s: client_gone = %d, prune_failures = %d; want 1 and 0", c.name, gone, failed)
		}
	}
}
