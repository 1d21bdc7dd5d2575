package cache

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

type result struct {
	v        int
	out      Outcome
	err      error
	panicked any
}

func call(c *Cache[string, int], key string, fill func() (int, bool, error)) (r result) {
	defer func() { r.panicked = recover() }()
	r.v, r.out, r.err = c.GetOrFill(key, fill)
	return r
}

// pileOn starts one caller whose fill blocks, lets n more callers arrive
// for the same key while it does, and then lets the fill run lead. A late
// caller that the scheduler held back until the fill was over runs late
// instead of waiting; the tests accept that and require that at least one
// caller did wait.
func pileOn(t *testing.T, c *Cache[string, int], key string, n int, lead, late func() (int, bool, error)) (leader result, waiters []result) {
	t.Helper()
	entered, release := make(chan struct{}), make(chan struct{})
	done := make(chan result)
	go func() {
		done <- call(c, key, func() (int, bool, error) {
			close(entered)
			<-release
			return lead()
		})
	}()
	<-entered

	waiters = make([]result, n)
	var arriving, wg sync.WaitGroup
	for i := range waiters {
		arriving.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			arriving.Done()
			waiters[i] = call(c, key, late)
		}()
	}
	arriving.Wait()
	time.Sleep(10 * time.Millisecond) // from "about to call" to "blocked on the flight"
	close(release)
	leader = <-done
	wg.Wait()

	waited := 0
	for _, w := range waiters {
		if w.out == Coalesced || w.out == Declined {
			waited++
		}
	}
	if waited == 0 {
		t.Fatalf("no caller waited for the fill in flight: %+v", waiters)
	}
	checkInvariants(t, c)
	return leader, waiters
}

// checkInvariants verifies the accounting: the tracked cost is the sum
// of the entries' costs and within budget, index and list agree, and no
// fill is in flight.
func checkInvariants[K comparable, V any](t *testing.T, c *Cache[K, V]) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	linked := 0
	for e := c.lru.next; e != &c.lru; e = e.next {
		linked++
		if e.next.prev != e || c.idx[e.key] != e {
			t.Errorf("ring or index broken at key %v", e.key)
		}
		sum += e.cost
		if c.cost != nil && e.cost != c.cost(e.key, e.v) {
			t.Errorf("stale cost %d for key %v", e.cost, e.key)
		}
	}
	if sum != c.used {
		t.Errorf("accounted cost %d, entries sum to %d", c.used, sum)
	}
	if c.used > c.budget {
		t.Errorf("cost %d exceeds budget %d", c.used, c.budget)
	}
	if len(c.idx) != linked {
		t.Errorf("index has %d keys, ring %d", len(c.idx), linked)
	}
	if len(c.flight) != 0 {
		t.Errorf("%d fills still in flight", len(c.flight))
	}
}

func valueCost(_ string, v int) int64 { return int64(v) }

// TestFillOutcomes runs every way a fill can end under concurrent
// callers. In each, one fill serves the callers that waited for it, the
// flight table is empty afterwards (pileOn checks), and only a stored
// value answers the next call.
func TestFillOutcomes(t *testing.T) {
	errBoom := errors.New("boom")
	const n = 8
	cases := []struct {
		name string
		lead func() (int, bool, error)
		// what the leading caller and the callers that waited get
		leader, waiter result
		stored         bool
	}{
		{"stored", func() (int, bool, error) { return 7, true, nil },
			result{v: 7, out: Filled}, result{v: 7, out: Coalesced}, true},
		{"error", func() (int, bool, error) { return 7, true, errBoom },
			result{v: 7, out: Filled, err: errBoom}, result{out: Coalesced, err: errBoom}, false},
		{"declined", func() (int, bool, error) { return 7, false, nil },
			result{v: 7, out: Filled}, result{out: Declined}, false},
		{"over budget", func() (int, bool, error) { return 11, true, nil },
			result{v: 11, out: Filled}, result{out: Declined}, false},
		{"panic", func() (int, bool, error) { panic("fill blew up") },
			result{panicked: "fill blew up"}, result{out: Coalesced, err: ErrFillPanicked}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(10, valueCost)
			late := func() (int, bool, error) { return 3, true, nil }
			leader, waiters := pileOn(t, c, "k", n, tc.lead, late)
			if leader != tc.leader {
				t.Errorf("leader got %+v, want %+v", leader, tc.leader)
			}
			for i, w := range waiters {
				switch {
				case w == tc.waiter:
				case tc.stored && w == (result{v: 7, out: Hit}):
				case !tc.stored && (w == (result{v: 3, out: Filled}) || w == (result{v: 3, out: Hit}) || w == (result{v: 3, out: Coalesced})):
					// Arrived after the fill was over: filled for itself, or found such a fill.
				default:
					t.Errorf("waiter %d got %+v, want %+v", i, w, tc.waiter)
				}
			}
			v, ok := c.Get("k")
			if tc.stored && (!ok || v != 7) {
				t.Errorf("Get = %d, %v after a stored fill", v, ok)
			}
			// Nothing poisoned: the next call is answered, by the store or by its own fill.
			if r := call(c, "k", late); r.err != nil || r.panicked != nil || (r.v != 3 && r.v != 7) {
				t.Errorf("call after %s: %+v", tc.name, r)
			}
			checkInvariants(t, c)
		})
	}
}

// TestBudgetIsAnInvariant: after every insert the summed cost is within
// budget, with the least recently used entries gone first.
func TestBudgetIsAnInvariant(t *testing.T) {
	c := New(10, valueCost)
	for i, cost := range []int{4, 4, 3, 10, 1, 1, 9, 2} {
		key := fmt.Sprint(i)
		if _, out, _ := c.GetOrFill(key, func() (int, bool, error) { return cost, true, nil }); out != Filled {
			t.Fatalf("insert %d: outcome %v", i, out)
		}
		checkInvariants(t, c)
		if _, ok := c.Get(key); !ok {
			t.Fatalf("insert %d: the new entry was evicted", i)
		}
	}
	// 4,4 | +3 evicts one | +10 evicts two | +1,+1 evicts the 10 | +9 evicts
	// one 1 | +2 evicts the other 1 and the 9.
	if u := c.Usage(); u.Entries != 1 || u.Cost != 2 || u.Evictions != 7 {
		t.Fatalf("usage = %+v, want 1 entry costing 2 after 7 evictions", u)
	}
}

// TestTouchRefreshesLRU: a, b stored; a touched; c stored → b, the
// coldest, is the one evicted. Both Get and a GetOrFill hit touch.
func TestTouchRefreshesLRU(t *testing.T) {
	for _, touch := range []func(*Cache[string, int]){
		func(c *Cache[string, int]) { c.Get("a") },
		func(c *Cache[string, int]) { c.GetOrFill("a", nil) }, // a hit never calls fill
	} {
		c := New[string, int](2, nil)
		one := func() (int, bool, error) { return 1, true, nil }
		c.GetOrFill("a", one)
		c.GetOrFill("b", one)
		touch(c)
		c.GetOrFill("c", one)
		if _, ok := c.Get("b"); ok {
			t.Fatal("coldest entry b survived")
		}
		for _, k := range []string{"a", "c"} {
			if _, ok := c.Get(k); !ok {
				t.Fatalf("entry %s was evicted", k)
			}
		}
		checkInvariants(t, c)
	}
}

// TestZeroBudget: a cache that can store nothing still runs one fill for
// the callers that overlap it.
func TestZeroBudget(t *testing.T) {
	c := New[string, int](0, nil)
	fill := func() (int, bool, error) { return 1, true, nil }
	leader, _ := pileOn(t, c, "k", 4, fill, fill)
	if leader != (result{v: 1, out: Filled}) {
		t.Fatalf("leader got %+v", leader)
	}
	if u := c.Usage(); u != (Usage{}) {
		t.Fatalf("zero-budget cache holds %+v", u)
	}
}

// TestStress hammers one small cache from many goroutines; run under
// -race. The accounting must hold at the end and the budget throughout.
func TestStress(t *testing.T) {
	c := New(64, valueCost)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := uint64(w)*2654435761 + 12345
			next := func(n uint64) uint64 {
				rng = rng*6364136223846793005 + 1442695040888963407
				return (rng >> 33) % n
			}
			for i := 0; i < 2000; i++ {
				key, cost := fmt.Sprint(next(32)), int(next(80)) // some cost more than the budget
				if next(3) == 0 {
					c.Get(key)
				} else {
					c.GetOrFill(key, func() (int, bool, error) { return cost, cost%7 != 0, nil })
				}
				if u := c.Usage(); u.Cost > 64 {
					t.Errorf("cost %d exceeds budget", u.Cost)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkInvariants(t, c)
	if u := c.Usage(); u.Evictions == 0 || u.Entries == 0 {
		t.Fatalf("stress exercised nothing: %+v", u)
	}
}
