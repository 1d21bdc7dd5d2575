package engine

import (
	"sync"
	"testing"

	"xmlproj/internal/dtd"
)

func multiTestSets() []dtd.NameSet {
	return []dtd.NameSet{
		dtd.NewNameSet("bib", "book", "title", "title#text"),
		dtd.NewNameSet("bib", "book", "author", "author#text"),
		dtd.NewNameSet("bib", "book", "year"),
	}
}

func TestMultiProjectionForCachesFusedTable(t *testing.T) {
	d := bib(t)
	e := New(Options{})
	pis := multiTestSets()

	mp1, projs, hit := e.MultiProjectionFor(d, pis)
	if mp1 == nil || hit {
		t.Fatalf("cold lookup: mp=%v hit=%v", mp1, hit)
	}
	if len(projs) != len(pis) {
		t.Fatalf("got %d compiled members, want %d", len(projs), len(pis))
	}
	if mp1.N() != len(pis) {
		t.Fatalf("fused table holds %d projectors, want %d", mp1.N(), len(pis))
	}

	mp2, _, hit := e.MultiProjectionFor(d, pis)
	if mp2 != mp1 || !hit {
		t.Fatalf("warm lookup: same table=%v hit=%v", mp2 == mp1, hit)
	}

	// Member order is part of the key: bit j answers for member j.
	swapped := []dtd.NameSet{pis[1], pis[0], pis[2]}
	mp3, _, hit := e.MultiProjectionFor(d, swapped)
	if mp3 == mp1 || hit {
		t.Fatalf("reordered set answered from cache (hit=%v)", hit)
	}

	m := e.Metrics()
	if m.MultiHits != 1 || m.MultiMisses != 2 {
		t.Fatalf("multi hits/misses = %d/%d, want 1/2", m.MultiHits, m.MultiMisses)
	}
	// Every member compile beyond the first per π is a projection hit.
	if m.ProjectionMisses != 3 {
		t.Fatalf("projection misses = %d, want 3", m.ProjectionMisses)
	}
	for _, k := range []string{"multi_projection_hits", "multi_projection_misses"} {
		if _, ok := m.Map()[k]; !ok {
			t.Fatalf("metrics map lacks %q", k)
		}
	}
}

func TestMultiProjectionForOversizeSet(t *testing.T) {
	d := bib(t)
	e := New(Options{})
	pis := make([]dtd.NameSet, dtd.MaxMultiProjections+1)
	for j := range pis {
		pis[j] = dtd.NewNameSet("bib", "book")
	}
	mp, projs, hit := e.MultiProjectionFor(d, pis)
	if mp != nil || hit {
		t.Fatalf("oversize set fused: mp=%v hit=%v", mp, hit)
	}
	if len(projs) != len(pis) {
		t.Fatalf("got %d compiled members, want %d", len(projs), len(pis))
	}
	if m := e.Metrics(); m.MultiHits != 0 || m.MultiMisses != 0 {
		t.Fatalf("oversize set moved fuse counters: %d/%d", m.MultiHits, m.MultiMisses)
	}
}

func TestMultiProjectionForSingleFlight(t *testing.T) {
	d := bib(t)
	e := New(Options{})
	pis := multiTestSets()
	const callers = 16
	tables := make([]*dtd.Projection, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i], _, _ = e.MultiProjectionFor(d, pis)
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if tables[i] != tables[0] {
			t.Fatalf("caller %d got a different fused table", i)
		}
	}
	if m := e.Metrics(); m.MultiMisses != 1 {
		t.Fatalf("%d fuses ran for one key, want 1", m.MultiMisses)
	}
}
