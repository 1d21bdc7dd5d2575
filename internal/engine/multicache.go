package engine

import (
	"xmlproj/internal/cache"
	"xmlproj/internal/dtd"
)

// multiKey identifies a fused projector set: the grammar by identity and
// the member projectors by an ORDER-PRESERVING fingerprint over the
// per-π fingerprints. Order matters — bit j of every mask in the fused
// table answers for member j, so [π1, π2] and [π2, π1] are different
// tables even though they fuse the same set.
type multiKey struct {
	d  *dtd.DTD
	fp string
}

// MultiProjectionFor compiles every projector in pis through the
// projection cache and fuses the set into one cached decision table, so
// a server answering a stream of identical multiprune requests fuses the
// set once. It returns the fused table (nil when the set is empty,
// exceeds dtd.MaxMultiProjections or could not be fused — the prune
// layer then shards, fuses per shard and reports why), the compiled
// members aligned with pis, and whether the fused table was answered
// from the cache (piggybacking on an in-flight fuse counts as a hit).
func (e *Engine) MultiProjectionFor(d *dtd.DTD, pis []dtd.NameSet) (*dtd.Projection, []*dtd.Projection, bool) {
	projs := make([]*dtd.Projection, len(pis))
	fps := make([]string, len(pis))
	for j, pi := range pis {
		projs[j] = e.ProjectionFor(d, pi)
		fps[j] = piFingerprint(pi)
	}
	if len(pis) == 0 || len(pis) > dtd.MaxMultiProjections {
		return nil, projs, false
	}
	mp, out, _ := e.multi.GetOrFill(multiKey{d: d, fp: Fingerprint(fps...)}, func() (*dtd.Projection, bool, error) {
		e.m.multiMisses.Add(1)
		mp, err := dtd.CombineProjections(projs)
		return mp, true, err
	})
	hit := mp != nil && out != cache.Filled
	if hit {
		e.m.multiHits.Add(1)
	}
	return mp, projs, hit
}
