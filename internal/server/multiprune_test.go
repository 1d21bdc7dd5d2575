package server

import (
	"bytes"
	"encoding/json"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// readParts decodes a multipart/mixed multiprune response into its
// parts, in order.
type prunePart struct {
	header map[string][]string
	body   []byte
}

func readParts(t *testing.T, resp *http.Response, body []byte) []prunePart {
	t.Helper()
	mt, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil || mt != "multipart/mixed" {
		t.Fatalf("Content-Type = %q (%v), want multipart/mixed", resp.Header.Get("Content-Type"), err)
	}
	mr := multipart.NewReader(bytes.NewReader(body), params["boundary"])
	var parts []prunePart
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			return parts
		}
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(p)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, prunePart{header: p.Header, body: data})
	}
}

// TestMultipruneByteIdentical: each part of a multiprune response holds
// exactly the bytes a serial /prune of that projector returns, in
// request order, for named projections and ad-hoc proj specs alike.
func TestMultipruneByteIdentical(t *testing.T) {
	s := newTestServer(t, Options{})
	if err := s.AddProjection("authors", "bib", false, "//book/author"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	serialOf := func(url string) []byte {
		resp, got := postPrune(t, ts, url, strings.NewReader(bibDoc))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, got)
		}
		return got
	}
	wants := [][]byte{
		serialOf("/prune?projection=titles"),
		serialOf("/prune?projection=authors"),
		serialOf("/prune?schema=bib&q=%2F%2Fbook%2Fyear"),
	}

	url := "/multiprune?projection=titles&projection=authors&proj=%2F%2Fbook%2Fyear&schema=bib"
	resp, body := postPrune(t, ts, url, strings.NewReader(bibDoc))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	parts := readParts(t, resp, body)
	if len(parts) != 3 {
		t.Fatalf("got %d parts, want 3", len(parts))
	}
	labels := []string{"titles", "authors", "proj0"}
	for j, part := range parts {
		if got := part.header["X-Projection"]; len(got) != 1 || got[0] != labels[j] {
			t.Fatalf("part %d label = %v, want %q", j, got, labels[j])
		}
		if e := part.header["X-Prune-Error"]; len(e) != 0 {
			t.Fatalf("part %d carries error %v", j, e)
		}
		if !bytes.Equal(part.body, wants[j]) {
			t.Fatalf("part %d differs from serial /prune\nmulti:  %q\nserial: %q", j, part.body, wants[j])
		}
	}
}

// TestMultipruneMixedVerdicts: a projector that descends into a broken
// region fails its part while a projector that discards that region
// still delivers — verdicts are per projector within one response.
func TestMultipruneMixedVerdicts(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The undeclared <x/> hides inside title: the author projector
	// discards title and skips it syntax-only, the title projector
	// descends into it and trips over the unknown element.
	invalid := `<bib><book><title>T<x/></title><author>A</author></book></bib>`
	url := "/multiprune?schema=bib" +
		"&proj=%2F%2Fbook%2Fauthor" + // discards title: never sees <x/>
		"&proj=%2F%2Fbook%2Ftitle" // keeps title: fails on <x/>
	resp, body := postPrune(t, ts, url, strings.NewReader(invalid))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	parts := readParts(t, resp, body)
	if len(parts) != 2 {
		t.Fatalf("got %d parts, want 2", len(parts))
	}
	if e := parts[0].header["X-Prune-Error"]; len(e) != 0 {
		t.Fatalf("author projector failed: %v", e)
	}
	if len(parts[0].body) == 0 {
		t.Fatal("author projector returned no output")
	}
	if e := parts[1].header["X-Prune-Error"]; len(e) == 0 {
		t.Fatal("title projector accepted the undeclared element")
	}
	if len(parts[1].body) != 0 {
		t.Fatalf("failed part carries a body: %q", parts[1].body)
	}
}

// TestMultipruneRejections: the resolver's failure statuses.
func TestMultipruneRejections(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		url    string
		status int
	}{
		{"/multiprune", http.StatusBadRequest},
		{"/multiprune?projection=nosuch", http.StatusNotFound},
		{"/multiprune?proj=%2F%2Fbook", http.StatusBadRequest}, // proj without schema
		{"/multiprune?schema=nosuch&proj=%2F%2Fbook", http.StatusNotFound},
		{"/multiprune?schema=bib&proj=%28%28%28", http.StatusBadRequest}, // unparsable query
	}
	for _, c := range cases {
		resp, body := postPrune(t, ts, c.url, strings.NewReader(bibDoc))
		if resp.StatusCode != c.status {
			t.Fatalf("%s: status %d, want %d: %s", c.url, resp.StatusCode, c.status, body)
		}
	}
}

// TestMultipruneCounters: the /debug/vars counters of multiprune —
// request count and fan-out — move as requests run, and a request is
// one outcome and one body however many projectors shared its scan.
func TestMultipruneCounters(t *testing.T) {
	s := newTestServer(t, Options{})
	if err := s.AddProjection("authors", "bib", false, "//book/author"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	vars := func() map[string]any {
		resp, err := http.Get(ts.URL + "/debug/vars")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/debug/vars: %d", resp.StatusCode)
		}
		var v struct {
			Server map[string]any `json:"server"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		return v.Server
	}
	num := func(m map[string]any, k string) float64 {
		v, ok := m[k].(float64)
		if !ok {
			t.Fatalf("vars key %q missing or not numeric: %v", k, m[k])
		}
		return v
	}

	sv0 := vars()
	url := "/multiprune?projection=titles&projection=authors"
	for i := 0; i < 2; i++ {
		resp, body := postPrune(t, ts, url, strings.NewReader(bibDoc))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	sv1 := vars()

	if got := num(sv1, "multi_requests") - num(sv0, "multi_requests"); got != 2 {
		t.Fatalf("multi_requests moved by %v, want 2", got)
	}
	if got := num(sv1, "multi_fanout") - num(sv0, "multi_fanout"); got != 4 {
		t.Fatalf("multi_fanout moved by %v, want 4", got)
	}
	if got := num(sv1, "ok") - num(sv0, "ok"); got != 2 {
		t.Fatalf("ok moved by %v, want 2", got)
	}
	if got := num(sv1, "bytes_in") - num(sv0, "bytes_in"); got != 2*float64(len(bibDoc)) {
		t.Fatalf("bytes_in moved by %v, want %d", got, 2*len(bibDoc))
	}
}
