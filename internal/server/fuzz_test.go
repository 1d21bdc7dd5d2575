package server

import (
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
