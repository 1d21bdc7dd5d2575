package server

import (
	"net/http"
	"net/url"
	"strings"
	"testing"

	"xmlproj/internal/rescache"
)

// FuzzConditionalHeaders feeds the daemon's conditional-request input,
// which comes from clients as it is: If-None-Match against an ETag
// (etagMatch) and an X-Doc-Digest (rescache.ParseDigest). Nothing
// panics; an If-None-Match matches a non-empty ETag exactly when one of
// its comma-separated members, trimmed and without a W/ prefix, is * or
// the ETag, and an empty ETag or header matches nothing; a digest that
// parses renders back through String as its lowercase form.
func FuzzConditionalHeaders(f *testing.F) {
	const digest = "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	f.Add(`"`+digest+`-v"`, `"`+digest+`-v"`, digest)
	f.Add(`W/"a", "b"`, `"b"`, strings.ToUpper(digest))
	f.Add(` * `, `"a"`, "zz")
	f.Add("*", "", digest[:63])
	f.Add(",", `"a"`, "")
	f.Add(`W/W/"a"`, `W/"a"`, digest+"0")
	f.Add(" \"a\" ", `"a"`, "é"+digest[2:])
	f.Fuzz(func(t *testing.T, ifNoneMatch, etag, docDigest string) {
		want := false
		if ifNoneMatch != "" && etag != "" {
			for rest := ifNoneMatch; ; {
				member, tail, more := strings.Cut(rest, ",")
				member = strings.TrimPrefix(strings.TrimSpace(member), "W/")
				if member == "*" || member == etag {
					want = true
				}
				if !more {
					break
				}
				rest = tail
			}
		}
		if got := etagMatch(ifNoneMatch, etag); got != want {
			t.Fatalf("etagMatch(%q, %q) = %v, want %v", ifNoneMatch, etag, got, want)
		}
		d, err := rescache.ParseDigest(docDigest)
		if err != nil {
			return
		}
		if got := d.String(); got != strings.ToLower(docDigest) {
			t.Fatalf("ParseDigest(%q).String() = %q, want its lowercase form", docDigest, got)
		}
	})
}

// FuzzResolveQuery feeds arbitrary raw query strings to resolve, the
// first thing every prune request's parameters meet, on a server with
// one schema and one projection registered as validating. Nothing
// panics; the status is 0 (resolved), 400 or 404; a validate value
// other than 1, true, 0 or false, or a second validate, is a 400; and the
// validating projection comes back unvalidated only for validate=0 or
// validate=false.
func FuzzResolveQuery(f *testing.F) {
	s := newTestServer(f, Options{})
	if err := s.AddProjection("strict", "bib", true, "//book/title"); err != nil {
		f.Fatal(err)
	}
	for _, q := range []string{
		"projection=strict", "projection=strict&validate=0", "projection=strict&validate=false",
		"projection=strict&validate=yes", "projection=strict&validate=", "projection=strict&validate=TRUE",
		"projection=strict&validate=0&validate=1", "projection=titles&validate=1", "projection=nosuch",
		"schema=bib&q=//book/title&validate=true", "schema=bib&q=//book[", "schema=nosuch&q=//a",
		"schema=bib", "", "%zz", "validate=1;projection=strict", "projection=str%69ct&validate=f%61lse",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/prune", RawQuery: raw}}
		np, status, msg := s.resolve(r)
		switch {
		case np != nil && status != 0:
			t.Fatalf("%q: a projection and status %d", raw, status)
		case np == nil && status != http.StatusBadRequest && status != http.StatusNotFound:
			t.Fatalf("%q: status %d (%s), want 400 or 404", raw, status, msg)
		}
		q := r.URL.Query()
		vs, v := q["validate"], q.Get("validate")
		known := len(vs) == 0 || len(vs) == 1 && (v == "1" || v == "true" || v == "0" || v == "false")
		if !known && status != http.StatusBadRequest {
			t.Fatalf("%q: validate=%q resolved with status %d, want 400", raw, vs, status)
		}
		if np != nil && np.p == s.projections["strict"].p && q.Get("projection") == "strict" &&
			!np.validate && v != "0" && v != "false" {
			t.Fatalf("%q: the validating projection came back unvalidated", raw)
		}
	})
}
