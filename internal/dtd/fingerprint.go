package dtd

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
)

// Fingerprint hashes the given parts into a compact stable hex key, for
// cache keys and ETags derived from a grammar, a projector or a query
// bunch. Parts are length-delimited, so distinct part lists never
// collide by concatenation.
func Fingerprint(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		var n [8]byte
		for i, l := 0, len(p); i < 8; i, l = i+1, l>>8 {
			n[i] = byte(l)
		}
		h.Write(n[:])
		io.WriteString(h, p)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Fingerprint hashes the grammar — root, edges, content models and
// attribute declarations (which String omits but inference uses) — so
// structurally identical schemas share cache entries. It is computed on
// first use and kept on the grammar, which is immutable after parsing,
// so it lives exactly as long as the grammar does.
func (d *DTD) Fingerprint() string {
	d.fpOnce.Do(func() {
		var sb strings.Builder
		sb.WriteString(d.String())
		for _, n := range d.order {
			def := d.Defs[n]
			for i := range def.Atts {
				a := &def.Atts[i]
				fmt.Fprintf(&sb, "att %s %s %q %v %q %v\n",
					a.Name, a.Type, strings.Join(a.Enum, "|"), a.Required, a.Default, a.HasDefault)
			}
		}
		d.fp = Fingerprint(sb.String())
	})
	return d.fp
}
