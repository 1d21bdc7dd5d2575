package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestPruneResultCacheHTTP: the gather path serves a repeat document
// from the result cache — MISS then HIT, byte-identical bodies, stable
// ETag/X-Doc-Digest — and a client echoing the ETag revalidates with an
// empty 304.
func TestPruneResultCacheHTTP(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	first, firstBody := postPrune(t, ts, "/prune?projection=titles", strings.NewReader(bibDoc))
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first POST: status %d: %s", first.StatusCode, firstBody)
	}
	if got := first.Header.Get(headerXCache); got != "MISS" {
		t.Fatalf("first POST: X-Cache = %q, want MISS", got)
	}
	etag := first.Header.Get("ETag")
	digest := first.Header.Get(headerDocDigest)
	if etag == "" || digest == "" {
		t.Fatalf("first POST: missing cache headers: ETag=%q digest=%q", etag, digest)
	}

	second, secondBody := postPrune(t, ts, "/prune?projection=titles", strings.NewReader(bibDoc))
	if second.StatusCode != http.StatusOK {
		t.Fatalf("second POST: status %d: %s", second.StatusCode, secondBody)
	}
	if got := second.Header.Get(headerXCache); got != "HIT" {
		t.Fatalf("second POST: X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(secondBody, firstBody) {
		t.Fatalf("cache hit differs from fresh prune:\n hit: %q\nmiss: %q", secondBody, firstBody)
	}
	if second.Header.Get("ETag") != etag || second.Header.Get(headerDocDigest) != digest {
		t.Fatalf("cache identity unstable: ETag %q->%q digest %q->%q",
			etag, second.Header.Get("ETag"), digest, second.Header.Get(headerDocDigest))
	}
	if cl := second.Header.Get("Content-Length"); cl != strconv.Itoa(len(firstBody)) {
		t.Fatalf("second POST: Content-Length %q, body %d bytes", cl, len(firstBody))
	}

	// Revalidation with the body: the server digests, matches the ETag
	// and answers 304 without pruning or sending the entity.
	req, err := http.NewRequest("POST", ts.URL+"/prune?projection=titles", strings.NewReader(bibDoc))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("If-None-Match POST: status %d, %d body bytes", resp.StatusCode, len(body))
	}

	// Body-free revalidation: echoing the digest means no body upload at
	// all — the 304 happens before the server would read one.
	req, err = http.NewRequest("POST", ts.URL+"/prune?projection=titles", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	req.Header.Set(headerDocDigest, digest)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("body-free revalidation: status %d", resp.StatusCode)
	}

	// A different validate mode is a different entity: same document,
	// fresh MISS, distinct ETag.
	other, _ := postPrune(t, ts, "/prune?projection=titles&validate=1", strings.NewReader(bibDoc))
	if got := other.Header.Get(headerXCache); got != "MISS" {
		t.Fatalf("validated POST: X-Cache = %q, want MISS", got)
	}
	if other.Header.Get("ETag") == etag {
		t.Fatalf("validated POST shares the unvalidated ETag %q", etag)
	}
}

// TestPruneHead: HEAD /prune probes the cache by digest without a body
// — ETag always, Content-Length on a hit, 304 on an If-None-Match
// match, 400 without a digest.
func TestPruneHead(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	head := func(digest, inm string) *http.Response {
		t.Helper()
		req, err := http.NewRequest("HEAD", ts.URL+"/prune?projection=titles", nil)
		if err != nil {
			t.Fatal(err)
		}
		if digest != "" {
			req.Header.Set(headerDocDigest, digest)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	if resp := head("", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("HEAD without digest: status %d, want 400", resp.StatusCode)
	}

	// Populate the cache, then probe.
	posted, body := postPrune(t, ts, "/prune?projection=titles", strings.NewReader(bibDoc))
	etag := posted.Header.Get("ETag")
	digest := posted.Header.Get(headerDocDigest)

	resp := head(digest, "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get(headerXCache) != "HIT" {
		t.Fatalf("HEAD after POST: status %d X-Cache %q", resp.StatusCode, resp.Header.Get(headerXCache))
	}
	if resp.Header.Get("ETag") != etag {
		t.Fatalf("HEAD ETag %q != POST ETag %q", resp.Header.Get("ETag"), etag)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("HEAD Content-Length %q, cached entity is %d bytes", cl, len(body))
	}

	if resp := head(digest, etag); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("HEAD If-None-Match: status %d, want 304", resp.StatusCode)
	}

	// A digest the cache has never seen: valid request, MISS.
	unknown := strings.Repeat("0", len(digest))
	resp = head(unknown, "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get(headerXCache) != "MISS" {
		t.Fatalf("HEAD unknown digest: status %d X-Cache %q", resp.StatusCode, resp.Header.Get(headerXCache))
	}
	if resp.Header.Get("Content-Length") != "" && resp.Header.Get("Content-Length") != "0" {
		t.Fatalf("HEAD miss advertised Content-Length %q", resp.Header.Get("Content-Length"))
	}
}

// TestMalformedDigest: X-Doc-Digest is the client's word. HEAD rejects
// one that is not a digest, as it rejects a missing one, and a body-free
// POST echoing an ETag built on one is not a 304: a 304 must name a
// document.
func TestMalformedDigest(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	do := func(method, digest, inm string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+"/prune?projection=titles", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(headerDocDigest, digest)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	for _, bad := range []string{"zz", strings.Repeat("g", 32), strings.Repeat("0", 31)} {
		if resp := do("HEAD", bad, ""); resp.StatusCode != http.StatusBadRequest || resp.Header.Get("ETag") != "" {
			t.Fatalf("HEAD with digest %q: status %d, ETag %q; want 400 and none", bad, resp.StatusCode, resp.Header.Get("ETag"))
		}
	}

	// The projection's fingerprint, as a served ETag carries it, behind a
	// digest that names no document.
	posted, _ := postPrune(t, ts, "/prune?projection=titles", strings.NewReader(bibDoc))
	etag := posted.Header.Get("ETag")
	forged := `"zz-` + etag[strings.Index(etag, "-")+1:]
	if resp := do("POST", "zz", forged); resp.StatusCode == http.StatusNotModified {
		t.Fatalf("a body-free POST echoing %s with digest zz was answered 304", forged)
	}
}

// TestPruneCacheDisabled: a negative budget turns the cache off — no
// cache headers on POST, HEAD refused.
func TestPruneCacheDisabled(t *testing.T) {
	s := newTestServer(t, Options{ResultCacheBytes: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postPrune(t, ts, "/prune?projection=titles", strings.NewReader(bibDoc))
	if resp.Header.Get(headerXCache) != "" || resp.Header.Get("ETag") != "" {
		t.Fatalf("disabled cache still set headers: X-Cache=%q ETag=%q",
			resp.Header.Get(headerXCache), resp.Header.Get("ETag"))
	}

	req, err := http.NewRequest("HEAD", ts.URL+"/prune?projection=titles", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(headerDocDigest, strings.Repeat("0", 32))
	hr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("HEAD with cache disabled: status %d, want 400", hr.StatusCode)
	}
}

// TestPruneStreamingBypassesCache: an unsized (chunked) body takes the
// streaming path, which the cache does not cover — X-Cache: BYPASS,
// and no cache counters move.
func TestPruneStreamingBypassesCache(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// An io.Reader that is not a *bytes.Reader/*strings.Reader forces
	// chunked encoding: no Content-Length, so no gather path.
	req, err := http.NewRequest("POST", ts.URL+"/prune?projection=titles", io.MultiReader(strings.NewReader(bibDoc)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunked POST: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(headerXCache); got != "BYPASS" {
		t.Fatalf("chunked POST: X-Cache = %q, want BYPASS", got)
	}
	if resp.Header.Get("ETag") != "" {
		t.Fatalf("chunked POST set an ETag %q with no digest to stand behind it", resp.Header.Get("ETag"))
	}
	if m := s.m.cacheHits.Load() + s.m.cacheMisses.Load(); m != 0 {
		t.Fatalf("streaming prune moved cache counters: %d", m)
	}
}

// TestDebugVarsCache: /debug/vars exposes the server's cache_* counters
// and the engine's result_cache_* counters, and they move with traffic.
func TestDebugVarsCache(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, body := postPrune(t, ts, "/prune?projection=titles", strings.NewReader(bibDoc))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	req, _ := http.NewRequest("POST", ts.URL+"/prune?projection=titles", strings.NewReader(bibDoc))
	req.Header.Set("If-None-Match", "*")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match *: status %d", resp.StatusCode)
	}

	vresp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer vresp.Body.Close()
	var vars struct {
		Engine map[string]json.Number     `json:"engine"`
		Server map[string]json.RawMessage `json:"server"`
	}
	if err := json.NewDecoder(vresp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	intVar := func(m map[string]json.RawMessage, key string) int64 {
		t.Helper()
		raw, ok := m[key]
		if !ok {
			t.Fatalf("vars missing %q", key)
		}
		n, err := strconv.ParseInt(string(raw), 10, 64)
		if err != nil {
			t.Fatalf("vars[%q] = %s: %v", key, raw, err)
		}
		return n
	}
	if got := intVar(vars.Server, "cache_hits"); got != 1 {
		t.Fatalf("cache_hits = %d, want 1", got)
	}
	if got := intVar(vars.Server, "cache_misses"); got != 1 {
		t.Fatalf("cache_misses = %d, want 1", got)
	}
	if got := intVar(vars.Server, "cache_304"); got != 1 {
		t.Fatalf("cache_304 = %d, want 1", got)
	}
	for _, key := range []string{"result_cache_hits", "result_cache_bytes", "result_cache_budget_bytes", "result_cache_evictions"} {
		if _, ok := vars.Engine[key]; !ok {
			t.Fatalf("engine vars missing %q", key)
		}
	}
	if n, _ := vars.Engine["result_cache_hits"].Int64(); n < 1 {
		t.Fatalf("result_cache_hits = %d, want >= 1", n)
	}
}
