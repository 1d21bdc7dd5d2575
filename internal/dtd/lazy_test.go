package dtd_test

import (
	"sync"
	"testing"

	"xmlproj/internal/dtd"
	"xmlproj/internal/prune"
	"xmlproj/internal/xmark"
)

// TestDenseTablesBuiltByFirstValidatingPrune pins when the dense
// content-model automata are compiled and what that costs: a prune that
// does not validate never builds them (xqrun -prune, xmlprune without
// -validate and the daemon's default routes never step one), and the
// first validating prune builds them exactly once, whichever of eight
// concurrent first users gets there (run under -race).
func TestDenseTablesBuiltByFirstValidatingPrune(t *testing.T) {
	d := dtd.MustParseString(xmark.DTDSource, "site")
	doc := []byte(xmark.NewGenerator(0.002, 1).Document().XML())
	names := dtd.NewNameSet("site", "people", "person", "name", "name#text")
	items := dtd.NewNameSet("site", "regions", "europe", "item", "item@id")
	syms := d.Symbols()

	g, _, err := prune.StreamGather(doc, d, names, prune.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := string(g.Bytes())
	g.Close()
	gs, _, errs := prune.StreamMultiGather(doc, d, []dtd.NameSet{names, items}, prune.MultiOptions{})
	for j, g := range gs {
		if errs[j] != nil {
			t.Fatal(errs[j])
		}
		g.Close()
	}
	if syms.DenseBuilt() {
		t.Fatal("a prune that does not validate compiled the dense automata")
	}

	const racers = 8
	tables := make([]*dtd.DenseDFA, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, _, err := prune.StreamGather(doc, d, names, prune.StreamOptions{Validate: true})
			if err != nil {
				t.Error(err)
				return
			}
			if got := string(g.Bytes()); got != want {
				t.Errorf("validating prune %d wrote %d bytes, want %d", i, len(got), len(want))
			}
			g.Close()
			tables[i] = syms.Info(0).Dense
		}(i)
	}
	wg.Wait()
	if !syms.DenseBuilt() {
		t.Fatal("a validating prune left the dense automata unbuilt")
	}
	for i := range tables {
		if tables[i] == nil || tables[i] != tables[0] {
			t.Fatalf("racer %d saw table %p, racer 0 %p: built more than once", i, tables[i], tables[0])
		}
	}
}
