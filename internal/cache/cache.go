// Package cache is the repository's one memoisation mechanism: an LRU
// under a cost budget whose misses are filled single-flight. It has
// three instances: the projector cache (xmlproj.Engine) and the two
// levels of the result cache, keys and outputs (internal/rescache).
//
// What an outcome means to a caller — whether piggybacking on another
// caller's fill counts as a hit, whether a peek moves a counter — is the
// caller's policy: GetOrFill reports what happened and counts nothing
// but evictions, which only it can see.
//
// Defended by: `serve_warm`, `rescache.hit_us` and `engine.gather_hit_us_d1`.
package cache

import (
	"errors"
	"sync"
)

// Outcome says how GetOrFill answered.
type Outcome uint8

const (
	// Hit: the value was stored.
	Hit Outcome = iota
	// Coalesced: another caller was already filling the key; this one
	// waited and shares its value, or its error.
	Coalesced
	// Filled: this caller ran fill; value and error are fill's own.
	Filled
	// Declined: the fill this caller waited for stored nothing and
	// failed with nothing — there is no value to share, and the caller
	// fills for itself.
	Declined
)

// ErrFillPanicked is what the callers coalesced onto a fill receive when
// that fill panicked. The panic itself propagates in the caller that ran
// it; nothing is stored and the next call fills again.
var ErrFillPanicked = errors.New("cache: the fill this call waited for panicked")

// Cache is an LRU of K → V under a cost budget. Safe for concurrent use.
type Cache[K comparable, V any] struct {
	budget int64
	cost   func(K, V) int64

	mu        sync.Mutex
	lru       entry[K, V] // ring sentinel: lru.next is the most recently used entry, lru.prev the coldest
	idx       map[K]*entry[K, V]
	flight    map[K]*flight[V]
	used      int64
	evictions int64
}

// entry is one stored value, linked into the recency ring. The ring is
// typed and intrusive rather than a container/list: a hit then costs one
// pointer chase and no interface assertion (EXPERIMENTS.md, "One way in,
// one cache": rescache.hit_us).
type entry[K comparable, V any] struct {
	key        K
	v          V
	cost       int64
	prev, next *entry[K, V]
}

func (e *entry[K, V]) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// touch makes e the most recently used entry of the ring behind lru.
func (e *entry[K, V]) touch(lru *entry[K, V]) {
	if lru.next == e {
		return
	}
	if e.prev != nil {
		e.unlink()
	}
	e.prev, e.next = lru, lru.next
	e.prev.next, e.next.prev = e, e
}

// flight is one fill in progress. Callers for the same key block on done
// and then read the rest, which the filling caller wrote before closing it.
type flight[V any] struct {
	done   chan struct{}
	v      V
	stored bool
	err    error
}

// New returns a cache that keeps the summed cost of its entries at or
// under budget, evicting least recently used first. A nil cost charges
// every entry 1, making budget an entry count.
func New[K comparable, V any](budget int64, cost func(K, V) int64) *Cache[K, V] {
	c := &Cache[K, V]{
		budget: budget,
		cost:   cost,
		idx:    make(map[K]*entry[K, V]),
		flight: make(map[K]*flight[V]),
	}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// Get returns the stored value for key, refreshing its LRU position. It
// never fills.
func (c *Cache[K, V]) Get(key K) (v V, ok bool) {
	c.mu.Lock()
	e, ok := c.idx[key]
	if ok {
		e.touch(&c.lru)
		v = e.v
	}
	c.mu.Unlock()
	return v, ok
}

// GetOrFill returns the value for key, running fill on a miss. Concurrent
// calls for one key run one fill; the others wait for it. fill returns
// the value, whether to store it, and an error: an error reaches the
// waiters but is never stored, so a later call retries. A value that fill
// declines to store, or whose cost alone exceeds the budget, is returned
// to the caller that produced it and to nobody else.
func (c *Cache[K, V]) GetOrFill(key K, fill func() (v V, store bool, err error)) (v V, out Outcome, err error) {
	c.mu.Lock()
	if e, ok := c.idx[key]; ok {
		e.touch(&c.lru)
		v = e.v
		c.mu.Unlock()
		return v, Hit, nil
	}
	if f, ok := c.flight[key]; ok {
		c.mu.Unlock()
		<-f.done
		if f.err == nil && !f.stored {
			return v, Declined, nil
		}
		return f.v, Coalesced, f.err
	}
	// A fill that panics never overwrites this error: it is what the
	// deferred cleanup releases the waiters with.
	f := &flight[V]{done: make(chan struct{}), err: ErrFillPanicked}
	c.flight[key] = f
	c.mu.Unlock()

	var store bool
	defer func() {
		c.mu.Lock()
		delete(c.flight, key)
		if f.err == nil && store && c.insertLocked(key, v) {
			f.v, f.stored = v, true
		}
		c.mu.Unlock()
		close(f.done)
	}()
	v, store, f.err = fill()
	return v, Filled, f.err
}

// insertLocked stores key → v at the warm end and evicts from the cold
// end until the budget holds again. The key is never present: the caller
// held its flight entry since the miss. It reports false, storing
// nothing, when v alone costs more than the budget.
func (c *Cache[K, V]) insertLocked(key K, v V) bool {
	cost := int64(1)
	if c.cost != nil {
		cost = c.cost(key, v)
	}
	if cost > c.budget {
		return false
	}
	e := &entry[K, V]{key: key, v: v, cost: cost}
	e.touch(&c.lru)
	c.idx[key] = e
	c.used += cost
	for c.used > c.budget {
		cold := c.lru.prev
		cold.unlink()
		delete(c.idx, cold.key)
		c.used -= cold.cost
		c.evictions++
	}
	return true
}

// Usage is a cache's population: entries held, their summed cost, and
// the entries evicted so far.
type Usage struct {
	Entries   int
	Cost      int64
	Evictions int64
}

// Usage returns the current population.
func (c *Cache[K, V]) Usage() Usage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Usage{Entries: len(c.idx), Cost: c.used, Evictions: c.evictions}
}
