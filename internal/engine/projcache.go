package engine

import (
	"sort"

	"xmlproj/internal/cache"
	"xmlproj/internal/dtd"
)

// projKey identifies a compiled projection: the grammar by identity (a
// *dtd.DTD is immutable after parsing, and its symbol table — which the
// compiled projection indexes into — is bound to that same pointer) and
// π by fingerprint.
type projKey struct {
	d  *dtd.DTD
	pi string
}

// ProjectionFor returns the compiled form of π against d, compiling on a
// cache miss: a 10k-document batch compiles π against the symbol table
// once, and concurrent batches for the same workload share that one
// compilation. Calls that piggyback on another caller's in-flight
// compilation count as hits. Exported for the front doors that prune
// outside PruneBatch (the result-cache fill).
func (e *Engine) ProjectionFor(d *dtd.DTD, pi dtd.NameSet) *dtd.Projection {
	p, out, err := e.proj.GetOrFill(projKey{d: d, pi: piFingerprint(pi)}, func() (*dtd.Projection, bool, error) {
		return d.CompileProjection(pi), true, nil
	})
	if err != nil {
		// Compilation returns no error, so the compilation this call
		// waited for panicked: compile here, where a repeat surfaces.
		out, p = cache.Filled, d.CompileProjection(pi)
	}
	if out == cache.Filled {
		e.m.projMisses.Add(1)
	} else {
		e.m.projHits.Add(1)
	}
	return p
}

// piFingerprint canonicalises π: names sorted, then hashed
// length-delimited, so equal sets fingerprint equally regardless of
// iteration order.
func piFingerprint(pi dtd.NameSet) string {
	names := make([]string, 0, len(pi))
	for n := range pi {
		names = append(names, string(n))
	}
	sort.Strings(names)
	return Fingerprint(names...)
}
