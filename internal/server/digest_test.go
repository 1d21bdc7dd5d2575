package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"xmlproj"
	"xmlproj/internal/xmark"
)

// xmarkServer is a server with XMark's DTD as schema "auction" and one
// projection over it, "names"; doc is an XMark document of factor 0.01.
func xmarkServer(t *testing.T, opts Options) (s *Server, names *namedProjection, doc []byte) {
	t.Helper()
	if opts.Logger == nil {
		opts.Logger = quietLogger()
	}
	s = New(opts)
	d, err := xmlproj.ParseDTDString(xmark.DTDSource, "site")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddSchema("auction", d); err != nil {
		t.Fatal(err)
	}
	if err := s.AddProjection("names", "auction", false, "//person[emailaddress]/name"); err != nil {
		t.Fatal(err)
	}
	return s, s.projections["names"], []byte(xmark.NewGenerator(0.01, 42).Document().XML())
}

// sendSized writes a POST declaring len(body) bytes on a fresh
// connection — the head in one write, then body[:sent] in pieces of 1
// to 1500 bytes drawn from rng (in one write when rng is nil) — and
// ends as end says: "wait" keeps the connection open, "half-close"
// closes its write side, "close" closes it without reading a response.
// Otherwise it returns the response and its body.
func sendSized(t *testing.T, ts *httptest.Server, url string, body []byte, sent int, rng *rand.Rand, end string, header ...string) (*http.Response, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n", url, len(body))
	for i := 0; i < len(header); i += 2 {
		head += header[i] + ": " + header[i+1] + "\r\n"
	}
	if _, err := io.WriteString(conn, head+"\r\n"); err != nil {
		t.Fatal(err)
	}
	for rest := body[:sent]; len(rest) > 0; {
		n := len(rest)
		if rng != nil {
			n = min(n, 1+rng.Intn(1500))
		}
		if _, err := conn.Write(rest[:n]); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	switch end {
	case "close":
		return nil, nil
	case "half-close":
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading the response: %v", err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading the response body: %v", err)
	}
	return resp, got
}

// TestBodyInPiecesKeepsItsIdentity: the gather route digests a body
// chunk by chunk as the read delivers it, so how the client cut the
// body must not show. A sized POST of an XMark document written in
// hundreds of small pieces is named by Engine.DigestBytes and
// ResultETag of its bytes and pruned exactly as the library prunes it;
// the same body in one write is a HIT on that entity, and a POST of it
// with the ETag a 304.
func TestBodyInPiecesKeepsItsIdentity(t *testing.T) {
	const url = "/prune?projection=names"
	s, names, doc := xmarkServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	digest, _ := s.eng.DigestBytes(doc)
	etag := s.eng.ResultETag(names.p, digest, false)
	var want bytes.Buffer
	if _, err := names.p.PruneStream(&want, bytes.NewReader(doc)); err != nil {
		t.Fatal(err)
	}

	resp, got := sendSized(t, ts, url, doc, len(doc), rand.New(rand.NewSource(54)), "wait")
	if resp.StatusCode != http.StatusOK || resp.Header.Get(headerXCache) != "MISS" {
		t.Fatalf("in pieces: status %d, X-Cache %q; want 200 and MISS", resp.StatusCode, resp.Header.Get(headerXCache))
	}
	if d := resp.Header.Get(headerDocDigest); d != digest {
		t.Fatalf("in pieces: %s %s, DigestBytes of the body %s", headerDocDigest, d, digest)
	}
	if e := resp.Header.Get("ETag"); e != etag {
		t.Fatalf("in pieces: ETag %s, ResultETag %s", e, etag)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("in pieces: %d bytes back, the library prunes to %d", len(got), want.Len())
	}

	resp, got = sendSized(t, ts, url, doc, len(doc), nil, "wait")
	if resp.Header.Get(headerXCache) != "HIT" || resp.Header.Get("ETag") != etag || resp.Header.Get(headerDocDigest) != digest {
		t.Fatalf("in one write: X-Cache %q, ETag %s, %s %s; want HIT, %s, %s",
			resp.Header.Get(headerXCache), resp.Header.Get("ETag"), headerDocDigest, resp.Header.Get(headerDocDigest), etag, digest)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("in one write: %d bytes back, the library prunes to %d", len(got), want.Len())
	}

	resp, got = sendSized(t, ts, url, doc, len(doc), rand.New(rand.NewSource(7)), "wait", "If-None-Match", etag)
	if resp.StatusCode != http.StatusNotModified || len(got) != 0 {
		t.Fatalf("with If-None-Match: status %d, %d body bytes; want 304 and none", resp.StatusCode, len(got))
	}
}

// TestBrokenUploadLeavesNoIdentity breaks a sized upload halfway on
// the gather route, the read that digests it: the body ends before its
// Content-Length (499), the request times out with half of it sent
// (408, by the armed deadline), or the client closes the connection
// (499). None may name the bytes that did arrive — no ETag or
// X-Doc-Digest in the response, and the result cache, probed with their
// digest, has no entry and counted no miss — and each gives back its
// admission slot and its body buffer, which the next request takes.
func TestBrokenUploadLeavesNoIdentity(t *testing.T) {
	const url = "/prune?projection=names"
	for _, c := range []struct {
		name    string
		timeout time.Duration
		end     string
		status  int
	}{
		{"ends early", 0, "half-close", statusClientGone},
		{"times out", 300 * time.Millisecond, "wait", http.StatusRequestTimeout},
		{"client closes", 0, "close", statusClientGone},
	} {
		t.Run(c.name, func(t *testing.T) {
			logs := make(recordingHandler, 4)
			s, _, doc := xmarkServer(t, Options{RequestTimeout: c.timeout, Logger: slog.New(logs)})
			// The header each handler left behind, whether or not a client
			// was there to receive it; one request at a time.
			left := make(chan http.Header, 1)
			h := s.Handler()
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				h.ServeHTTP(w, r)
				left <- w.Header().Clone()
			}))
			defer ts.Close()

			resp, _ := sendSized(t, ts, url, doc, len(doc)/2, rand.New(rand.NewSource(54)), c.end)
			attrs := logs.next(t)
			header := <-left
			if got := attrs["status"].Int64(); got != int64(c.status) {
				t.Fatalf("status %d (err %v), want %d", got, attrs["err"], c.status)
			}
			sentHeaders := []http.Header{header}
			if resp != nil {
				if resp.StatusCode != c.status {
					t.Errorf("response status %d, want %d", resp.StatusCode, c.status)
				}
				sentHeaders = append(sentHeaders, resp.Header)
			}
			for _, h := range sentHeaders {
				if h.Get("ETag") != "" || h.Get(headerDocDigest) != "" {
					t.Errorf("a broken upload was named: ETag %q, %s %q", h.Get("ETag"), headerDocDigest, h.Get(headerDocDigest))
				}
			}

			arrived := attrs["bytes_in"].Int64()
			if arrived <= 0 || arrived >= int64(len(doc)) {
				t.Fatalf("%d of %d bytes arrived", arrived, len(doc))
			}
			digest, _ := s.eng.DigestBytes(doc[:arrived])
			head := do(t, "HEAD", ts.URL+url, nil, headerDocDigest, digest)
			<-left
			logs.next(t)
			if head.StatusCode != http.StatusOK || head.Header.Get(headerXCache) != "MISS" {
				t.Errorf("HEAD with the digest of what arrived: status %d, X-Cache %q; want 200 and MISS", head.StatusCode, head.Header.Get(headerXCache))
			}
			if misses, engineMisses := s.m.cacheMisses.Load(), s.eng.Metrics().ResultCache.Misses; misses != 0 || engineMisses != 0 {
				t.Errorf("cache misses: server %d, engine %d; want none", misses, engineMisses)
			}
			if n := s.m.inFlight.Load(); n != 0 || len(s.sem) != 0 {
				t.Errorf("in_flight = %d, %d admission slots taken", n, len(s.sem))
			}

			buf := s.lastBuf.Load()
			if buf == nil {
				t.Fatal("the broken upload did not give its body buffer back")
			}
			size := buf.Cap()
			if resp, _ := sendSized(t, ts, url, doc, len(doc), nil, "wait"); resp.StatusCode != http.StatusOK {
				t.Fatalf("the next request: status %d", resp.StatusCode)
			}
			<-left
			logs.next(t)
			if next := s.lastBuf.Load(); next != buf || next.Cap() != size {
				t.Errorf("the next request did not reuse the body buffer of %d bytes", size)
			}
		})
	}
}
