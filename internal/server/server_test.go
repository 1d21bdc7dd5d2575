package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"xmlproj"
	"xmlproj/internal/xmark"
)

const bibDTD = `
<!ELEMENT bib (book*)>
<!ELEMENT book (title, author+, year?)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT year (#PCDATA)>
`

const bibDoc = `<bib><book><title>Commedia</title><author>Dante</author><year>1313</year></book><book><title>Decameron</title><author>Boccaccio</author></book></bib>`

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = quietLogger()
	}
	s := New(opts)
	d, err := xmlproj.ParseDTDString(bibDTD, "bib")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddSchema("bib", d); err != nil {
		t.Fatal(err)
	}
	if err := s.AddProjection("titles", "bib", false, "//book/title"); err != nil {
		t.Fatal(err)
	}
	return s
}

func postPrune(t *testing.T, ts *httptest.Server, url string, body io.Reader) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+url, "application/xml", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestPruneByteIdentical: the HTTP path returns exactly the bytes the
// library's streaming pruner produces, for both ad-hoc query requests
// and precompiled projections.
func TestPruneByteIdentical(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d, err := xmlproj.ParseDTDString(bibDTD, "bib")
	if err != nil {
		t.Fatal(err)
	}
	q, err := xmlproj.Compile("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Infer(xmlproj.Materialized, q)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := p.PruneStreamOpts(&want, strings.NewReader(bibDoc), xmlproj.StreamOptions{}); err != nil {
		t.Fatal(err)
	}

	for _, url := range []string{
		"/prune?schema=bib&q=" + "%2F%2Fbook%2Ftitle",
		"/prune?projection=titles",
	} {
		resp, got := postPrune(t, ts, url, strings.NewReader(bibDoc))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: HTTP output differs from prune.Stream:\n http: %q\n want: %q", url, got, want.Bytes())
		}
		if tr := resp.Trailer.Get(errorTrailer); tr != "" {
			t.Fatalf("%s: unexpected error trailer %q", url, tr)
		}
	}
}

// TestPruneRejections: the distinct failure statuses — unknown schema
// or projection 404, missing/bad query 400, bad document 422, oversized
// body 413, busy 429, timeout 408.
func TestPruneRejections(t *testing.T) {
	s := newTestServer(t, Options{MaxBodyBytes: 256})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, url, body string
		want            int
	}{
		{"unknown schema", "/prune?schema=nope&q=//a", bibDoc, http.StatusNotFound},
		{"unknown projection", "/prune?projection=nope", bibDoc, http.StatusNotFound},
		{"missing query", "/prune?schema=bib", bibDoc, http.StatusBadRequest},
		{"bad query", "/prune?schema=bib&q=" + "%2F%2F%5B", bibDoc, http.StatusBadRequest},
		// A well-formed query matching nothing in the schema is not an
		// error: inference yields the root-only projector and the prune
		// returns the empty skeleton.
		{"query outside schema", "/prune?schema=bib&q=%2F%2Fnope", bibDoc, http.StatusOK},
		{"bad document", "/prune?projection=titles", "<bib><unknown/></bib>", http.StatusUnprocessableEntity},
		{"oversized body", "/prune?projection=titles", "<bib>" + strings.Repeat("<book><title>x</title><author>a</author></book>", 20) + "</bib>", http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		resp, body := postPrune(t, ts, c.url, strings.NewReader(c.body))
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (body %q)", c.name, resp.StatusCode, c.want, body)
		}
	}

	// Wrong method → 405 from the mux's method pattern.
	resp, err := http.Get(ts.URL + "/prune?projection=titles")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /prune: status %d, want 405", resp.StatusCode)
	}
}

// TestPruneOversizedChunkedBody: a body with no declared length is cut
// off by MaxBytesReader mid-stream and still reports 413.
func TestPruneOversizedChunkedBody(t *testing.T) {
	s := newTestServer(t, Options{MaxBodyBytes: 128})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pr, pw := io.Pipe()
	go func() {
		pw.Write([]byte("<bib>"))
		row := []byte("<book><title>t</title><author>a</author></book>")
		for i := 0; i < 100; i++ {
			if _, err := pw.Write(row); err != nil {
				return // server stopped reading at the limit
			}
		}
		pw.Close()
	}()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/prune?projection=titles", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked oversize: status %d, want 413", resp.StatusCode)
	}
}

// TestPruneRequestTimeout: a prune that cannot finish before the
// per-request deadline aborts with 408 instead of hanging a slot.
func TestPruneRequestTimeout(t *testing.T) {
	s := newTestServer(t, Options{RequestTimeout: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pr, pw := io.Pipe()
	defer pw.Close()
	go pw.Write([]byte("<bib><book><title>stall")) // never completes

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/prune?projection=titles", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("stalled prune: status %d, want 408", resp.StatusCode)
	}
}

// inFlight polls /debug/vars until the server reports n prunes holding
// admission slots.
func waitInFlight(t *testing.T, ts *httptest.Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/debug/vars")
		if err != nil {
			t.Fatal(err)
		}
		var vars struct {
			Server struct {
				InFlight int64 `json:"in_flight"`
			} `json:"server"`
		}
		err = json.NewDecoder(resp.Body).Decode(&vars)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if vars.Server.InFlight == n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("server never reached %d in-flight prunes", n)
}

// TestPruneConcurrencyLimit: with one admission slot held, the next
// request is rejected with 429; once the slot frees, requests flow
// again.
func TestPruneConcurrencyLimit(t *testing.T) {
	s := newTestServer(t, Options{MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pr, pw := io.Pipe()
	done := make(chan *http.Response, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/prune?projection=titles", pr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- nil
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp
	}()
	pw.Write([]byte(bibDoc)) // full document, pipe left open: prune waits for EOF
	waitInFlight(t, ts, 1)

	resp, body := postPrune(t, ts, "/prune?projection=titles", strings.NewReader(bibDoc))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429 (body %q)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	pw.Close() // release the slot
	if first := <-done; first == nil || first.StatusCode != http.StatusOK {
		t.Fatalf("held request did not finish cleanly: %+v", first)
	}

	resp, _ = postPrune(t, ts, "/prune?projection=titles", strings.NewReader(bibDoc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d, want 200", resp.StatusCode)
	}
}

// TestGracefulShutdownDrains: Shutdown waits for the in-flight prune,
// which completes with a full, correct response.
func TestGracefulShutdownDrains(t *testing.T) {
	s := newTestServer(t, Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()

	pr, pw := io.Pipe()
	type result struct {
		status int
		body   []byte
	}
	done := make(chan result, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, base+"/prune?projection=titles", pr)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- result{}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		done <- result{resp.StatusCode, body}
	}()
	pw.Write([]byte(bibDoc[:20])) // request is mid-stream
	// ... and admitted: Shutdown closes the listener first, and a
	// connection still in the accept queue at that point is reset.
	for deadline := time.Now().Add(5 * time.Second); s.m.inFlight.Load() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- httpSrv.Shutdown(ctx)
	}()
	// Let Shutdown begin refusing new work, then finish the request.
	time.Sleep(20 * time.Millisecond)
	pw.Write([]byte(bibDoc[20:]))
	pw.Close()

	res := <-done
	if res.status != http.StatusOK {
		t.Fatalf("drained request: status %d, body %q", res.status, res.body)
	}
	if !bytes.Contains(res.body, []byte("<title>Commedia</title>")) {
		t.Fatalf("drained request returned wrong body: %q", res.body)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestConcurrentMixedRequests: valid prunes, bad documents, bad
// queries and oversized bodies in parallel — exercised under -race in
// CI; statuses must stay in the expected set and valid prunes must
// return correct bytes.
func TestConcurrentMixedRequests(t *testing.T) {
	s := newTestServer(t, Options{MaxBodyBytes: 1 << 20, MaxConcurrent: 4, AdmissionWait: 2 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want := "<bib><book><title>Commedia</title></book><book><title>Decameron</title></book></bib>"
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		for _, kind := range []int{0, 1, 2, 3} {
			wg.Add(1)
			go func(kind int) {
				defer wg.Done()
				var url, body string
				var wantStatus int
				switch kind {
				case 0:
					url, body, wantStatus = "/prune?projection=titles", bibDoc, http.StatusOK
				case 1:
					url, body, wantStatus = "/prune?projection=titles", "<bib><nope/></bib>", http.StatusUnprocessableEntity
				case 2:
					url, body, wantStatus = "/prune?schema=bib&q=%2F%2F%5B", bibDoc, http.StatusBadRequest
				case 3:
					url = "/prune?projection=titles"
					body = "<bib>" + strings.Repeat("<book><title>t</title><author>a</author></book>", 40000) + "</bib>"
					wantStatus = http.StatusRequestEntityTooLarge
				}
				resp, err := http.Post(ts.URL+url, "application/xml", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				data, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != wantStatus {
					errs <- fmt.Errorf("kind %d: status %d, want %d", kind, resp.StatusCode, wantStatus)
					return
				}
				if kind == 0 && string(data) != want {
					errs <- fmt.Errorf("valid prune returned %q", data)
				}
			}(kind)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDebugVars: the expvar document carries the engine snapshot, the
// server counters and the latency histogram, and they move with
// traffic.
func TestDebugVars(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, _ := postPrune(t, ts, "/prune?projection=titles", strings.NewReader(bibDoc))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("prune %d failed: %d", i, resp.StatusCode)
		}
	}
	postPrune(t, ts, "/prune?schema=nope&q=//a", strings.NewReader(bibDoc))

	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Engine map[string]any `json:"engine"`
		Server struct {
			Requests    int64          `json:"requests"`
			OK          int64          `json:"ok"`
			BadRequests int64          `json:"bad_requests"`
			BytesIn     int64          `json:"bytes_in"`
			BytesOut    int64          `json:"bytes_out"`
			Latency     map[string]any `json:"latency"`
		} `json:"server"`
		Limits map[string]any `json:"limits"`
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatal(err)
	}
	if vars.Server.Requests != 4 || vars.Server.OK != 3 || vars.Server.BadRequests != 1 {
		t.Fatalf("server counters: %+v", vars.Server)
	}
	if vars.Server.BytesIn == 0 || vars.Server.BytesOut == 0 {
		t.Fatalf("byte counters did not move: %+v", vars.Server)
	}
	// Every finished request is observed once, the rejected one too.
	if vars.Server.Latency["count"].(float64) != 4 {
		t.Fatalf("latency histogram count: %v", vars.Server.Latency)
	}
	// The engine snapshot must expose every Metrics counter the Map hook
	// flattens, inference included (the projection was precompiled).
	// Served prunes are credited into the engine counters (RecordPrune),
	// not just the server's own.
	if got := vars.Engine["docs_pruned"].(float64); got != 3 {
		t.Fatalf("engine docs_pruned = %v, want 3", got)
	}
	for _, key := range []string{"inferences", "docs_pruned", "bytes_in", "bytes_out", "cache_hits", "result_cache_hits", "parallel_prunes"} {
		if _, ok := vars.Engine[key]; !ok {
			t.Errorf("engine snapshot missing %q: %v", key, vars.Engine)
		}
	}
	// The look-ups these counted are gone: π's compiled table and
	// fingerprints live on the projector, a fused table is built per pass,
	// and nothing memoises a file's identity.
	for _, key := range []string{"projection_hits", "projection_misses", "multi_projection_hits", "multi_projection_misses",
		"multi_table_hits", "multi_table_misses", "result_cache_identity_hits", "result_cache_identity_misses"} {
		if bytes.Contains(body, []byte(`"`+key+`"`)) {
			t.Errorf("/debug/vars still has %q", key)
		}
	}
	if vars.Engine["inferences"].(float64) < 1 {
		t.Errorf("engine snapshot shows no inference: %v", vars.Engine)
	}
	if vars.Limits["max_concurrent"].(float64) <= 0 {
		t.Errorf("limits missing max_concurrent: %v", vars.Limits)
	}
}

// TestAdminHandler: pprof index and vars respond on the admin mux.
func TestAdminHandler(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.AdminHandler())
	defer ts.Close()

	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// TestSchemasEndpoint: the catalogue lists schemas and projections.
func TestSchemasEndpoint(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/schemas")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Schemas []struct {
			Name, Root string
		} `json:"schemas"`
		Projections []struct {
			Name, Schema string
		} `json:"projections"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Schemas) != 1 || out.Schemas[0].Name != "bib" || out.Schemas[0].Root != "bib" {
		t.Fatalf("schemas: %+v", out.Schemas)
	}
	if len(out.Projections) != 1 || out.Projections[0].Name != "titles" {
		t.Fatalf("projections: %+v", out.Projections)
	}
}

// TestValidateParam: validation fused into the HTTP prune rejects a
// DTD-invalid document that parses fine without validation.
func TestValidateParam(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// book without the required author: well-formed, DTD-invalid.
	invalid := `<bib><book><title>T</title></book></bib>`
	resp, _ := postPrune(t, ts, "/prune?projection=titles", strings.NewReader(invalid))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unvalidated prune of invalid doc: status %d", resp.StatusCode)
	}
	resp, body := postPrune(t, ts, "/prune?projection=titles&validate=1", strings.NewReader(invalid))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("validated prune of invalid doc: status %d (body %q)", resp.StatusCode, body)
	}
}

// TestGatherPath: a body of known, bounded length is served by the
// span-gather path — the response carries a real Content-Length (no
// trailer), the output matches the streaming pruner byte for byte, the
// gather counter moves, and a prune failure gets a clean error status.
func TestGatherPath(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	d, err := xmlproj.ParseDTDString(bibDTD, "bib")
	if err != nil {
		t.Fatal(err)
	}
	q, err := xmlproj.Compile("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Infer(xmlproj.Materialized, q)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := p.PruneStreamOpts(&want, strings.NewReader(bibDoc), xmlproj.StreamOptions{}); err != nil {
		t.Fatal(err)
	}

	resp, got := postPrune(t, ts, "/prune?projection=titles", strings.NewReader(bibDoc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if cl := resp.Header.Get("Content-Length"); cl != fmt.Sprint(want.Len()) {
		t.Errorf("Content-Length = %q, want %d", cl, want.Len())
	}
	if resp.Header.Get("Trailer") != "" {
		t.Errorf("gather response declared a trailer")
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("gather output differs from streaming prune:\n got: %q\nwant: %q", got, want.Bytes())
	}
	if n := s.m.gatherPrunes.Load(); n != 1 {
		t.Errorf("gather_prunes = %d, want 1", n)
	}

	// A bad document fails with a clean pre-write status on this path.
	resp, _ = postPrune(t, ts, "/prune?projection=titles", strings.NewReader("<bib><unknown/></bib>"))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad document: status %d, want 422", resp.StatusCode)
	}

	// Disabling the path falls back to streaming: chunked-style
	// trailer-declared responses, no gather counter movement.
	s2 := newTestServer(t, Options{MaxGatherBytes: -1})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, got = postPrune(t, ts2, "/prune?projection=titles", strings.NewReader(bibDoc))
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("streaming fallback: status %d, output match %v", resp.StatusCode, bytes.Equal(got, want.Bytes()))
	}
	if n := s2.m.gatherPrunes.Load(); n != 0 {
		t.Errorf("gather_prunes = %d with path disabled", n)
	}
}

// TestPipelinedPath: a chunked (unsized) body on a multi-CPU host,
// validated while it is pruned (auto stays serial without), is served by
// the pipelined streaming engine — output still byte-identical
// to the serial pruner, and the pipelined counters move: the server's
// pipelined_prunes and peak_window_bytes, and the engine's pipelined
// stage metrics.
func TestPipelinedPath(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	// MaxConcurrent 1 gives each request the full GOMAXPROCS worker
	// budget (the pipelined engine refuses to run with a budget of 1).
	s := newTestServer(t, Options{MaxConcurrent: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var doc strings.Builder
	doc.WriteString("<bib>")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&doc, "<book><title>T%d</title><author>A%d</author></book>", i, i)
	}
	doc.WriteString("</bib>")

	d, err := xmlproj.ParseDTDString(bibDTD, "bib")
	if err != nil {
		t.Fatal(err)
	}
	q, err := xmlproj.Compile("//book/title")
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Infer(xmlproj.Materialized, q)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := p.PruneStreamOpts(&want, strings.NewReader(doc.String()), xmlproj.StreamOptions{Engine: xmlproj.PruneScanner}); err != nil {
		t.Fatal(err)
	}

	// Wrapping the reader hides its size from net/http: the request goes
	// out chunked and the server sees ContentLength -1.
	resp, got := postPrune(t, ts, "/prune?projection=titles&validate=1", struct{ io.Reader }{strings.NewReader(doc.String())})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got[:min(len(got), 200)])
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("pipelined HTTP output differs from serial prune (%d vs %d bytes)", len(got), want.Len())
	}
	if n := s.m.pipelinedPrunes.Load(); n != 1 {
		t.Errorf("pipelined_prunes = %d, want 1", n)
	}
	if n := s.m.peakWindowBytes.Load(); n <= 0 {
		t.Errorf("peak_window_bytes = %d, want > 0", n)
	}
	if n := s.eng.Metrics().PipelinedPrunes; n != 1 {
		t.Errorf("engine PipelinedPrunes = %d, want 1", n)
	}
}

// TestStreamedLargeOutput: a chunked upload whose pruned output passes
// the first flush long before the body is read — XMark 0.1 against
// //person[emailaddress]/name, two 64 KiB flushes out — comes back whole, with an
// empty error trailer, and leaves its connection reusable. Before the
// streamed route enabled full duplex, net/http dropped the unread body
// at the first write and the response was a truncated 200.
func TestStreamedLargeOutput(t *testing.T) {
	s := New(Options{Logger: quietLogger()})
	d, err := xmlproj.ParseDTDString(xmark.DTDSource, "site")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddSchema("auction", d); err != nil {
		t.Fatal(err)
	}
	const query = "//person[emailaddress]/name"
	if err := s.AddProjection("mid", "auction", false, query); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc := xmark.NewGenerator(0.1, 42).Document().XML()
	q, err := xmlproj.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Infer(xmlproj.Materialized, q)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := p.PruneStream(&want, strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if want.Len() <= 128<<10 {
		t.Fatalf("pruned output is %d bytes; the test needs more than two 64 KiB flushes", want.Len())
	}

	// One connection at most, and a trace hook that says whether a
	// request got it from the idle pool.
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	post := func(body io.Reader) (got []byte, trailer string, reused bool) {
		t.Helper()
		ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
		})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/prune?projection=mid", body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if got, err = io.ReadAll(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %.200s", resp.StatusCode, got)
		}
		return got, resp.Trailer.Get(errorTrailer), reused
	}

	// Wrapping the reader hides its size: the upload goes out chunked.
	got, trailer, _ := post(struct{ io.Reader }{strings.NewReader(doc)})
	if trailer != "" {
		t.Errorf("error trailer %q", trailer)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("streamed output is %d bytes, want %d", len(got), want.Len())
	}
	got, trailer, reused := post(struct{ io.Reader }{strings.NewReader(doc)})
	if !reused {
		t.Error("the second request did not reuse the first one's connection")
	}
	if trailer != "" || !bytes.Equal(got, want.Bytes()) {
		t.Errorf("second request: %d bytes (want %d), trailer %q", len(got), want.Len(), trailer)
	}
}
