package engine

import (
	"container/list"

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

// multiEntry is one cached fused decision table.
type multiEntry struct {
	key multiKey
	mp  *dtd.Projection
}

// multiFlight is one in-flight fuse; concurrent requests for the same
// key block on done and share mp.
type multiFlight struct {
	done chan struct{}
	mp   *dtd.Projection
}

// multiCache caches fused multi-projection decision tables with the
// same LRU + single-flight discipline as the projection cache: a server
// answering a stream of identical multiprune requests fuses the set
// once.
type multiCache struct {
	lru    *list.List // *multiEntry, most recently used first
	idx    map[multiKey]*list.Element
	flight map[multiKey]*multiFlight
}

func newMultiCache() *multiCache {
	return &multiCache{
		lru:    list.New(),
		idx:    make(map[multiKey]*list.Element),
		flight: make(map[multiKey]*multiFlight),
	}
}

// MultiProjectionFor compiles every projector in pis through the
// projection cache and fuses the set into one cached decision table.
// It returns the fused table (nil when the set is empty or exceeds
// dtd.MaxMultiProjections — the prune layer then shards and fuses per
// shard), the compiled members aligned with pis, and whether the fused
// table was answered from the cache (piggybacking on an in-flight fuse
// counts as a hit).
func (e *Engine) MultiProjectionFor(d *dtd.DTD, pis []dtd.NameSet) (*dtd.Projection, []*dtd.Projection, bool) {
	projs := make([]*dtd.Projection, len(pis))
	fps := make([]string, len(pis))
	for j, pi := range pis {
		projs[j] = e.projectionFor(d, pi)
		fps[j] = piFingerprint(pi)
	}
	if len(pis) == 0 || len(pis) > dtd.MaxMultiProjections {
		return nil, projs, false
	}
	c := e.multi
	key := multiKey{d: d, fp: Fingerprint(fps...)}
	// The projection cache's lock also serialises this cache; fusing and
	// prunes happen outside it.
	e.proj.mu.Lock()
	if el, ok := c.idx[key]; ok {
		c.lru.MoveToFront(el)
		mp := el.Value.(*multiEntry).mp
		e.proj.mu.Unlock()
		e.m.multiHits.Add(1)
		return mp, projs, true
	}
	if f, ok := c.flight[key]; ok {
		e.proj.mu.Unlock()
		<-f.done
		e.m.multiHits.Add(1)
		return f.mp, projs, true
	}
	f := &multiFlight{done: make(chan struct{})}
	c.flight[key] = f
	e.proj.mu.Unlock()

	e.m.multiMisses.Add(1)
	// The members were all compiled against d's symbol table and the set
	// is within the fuse limit, so combining cannot fail.
	f.mp, _ = dtd.CombineProjections(projs)

	e.proj.mu.Lock()
	delete(c.flight, key)
	if cap := e.cacheCap(); cap > 0 && f.mp != nil {
		c.idx[key] = c.lru.PushFront(&multiEntry{key: key, mp: f.mp})
		for c.lru.Len() > cap {
			cold := c.lru.Back()
			c.lru.Remove(cold)
			delete(c.idx, cold.Value.(*multiEntry).key)
		}
	}
	e.proj.mu.Unlock()
	close(f.done)
	return f.mp, projs, false
}
