package xquery

// Random-DTD × random-document × random-FLWR fuzzing of the full XQuery
// pipeline (extraction → inference → pruning → evaluation), mirroring the
// XPath-level fuzzer in internal/prune.

import (
	"testing"

	"xmlproj/internal/core"
	"xmlproj/internal/gen"
	"xmlproj/internal/prune"
	"xmlproj/internal/validate"
)

func TestFuzzXQuerySoundness(t *testing.T) {
	rounds := int64(15)
	queriesPer := 20
	if testing.Short() {
		rounds, queriesPer = 3, 6
	}
	for seed := int64(0); seed < rounds; seed++ {
		d := gen.RandomDTD(seed, gen.DTDOptions{Elements: 8, AllowRecursion: seed%2 == 1})
		qg := gen.NewQueryGen(d, seed*7+3, gen.QueryOptions{})
		doc := gen.New(d, seed, gen.Options{MaxDepth: 6}).Document()
		if err := validate.Document(d, doc); err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < queriesPer; qi++ {
			src := qg.FLWRSource()
			q, err := Parse(src)
			if err != nil {
				t.Fatalf("seed %d: generated query %q does not parse: %v", seed, src, err)
			}
			paths := Extract(RewriteForIf(q))
			pr, err := core.Infer(d, paths)
			if err != nil {
				t.Fatalf("seed %d: %q: infer: %v", seed, src, err)
			}
			orig, err := NewEvaluator(doc).Eval(q)
			if err != nil {
				t.Fatalf("seed %d: %q on original: %v", seed, src, err)
			}
			pruned := prune.Tree(doc, pr.Compiled())
			if pruned.Root == nil {
				if len(orig) != 0 && Serialize(orig) != "0" {
					t.Fatalf("seed %d: %q returned %q but π = %s pruned everything\ngrammar:\n%s",
						seed, src, Serialize(orig), pr, d)
				}
				continue
			}
			after, err := NewEvaluator(pruned).Eval(q)
			if err != nil {
				t.Fatalf("seed %d: %q on pruned: %v", seed, src, err)
			}
			if Serialize(orig) != Serialize(after) {
				t.Fatalf("seed %d: %q changed after pruning\norig:   %q\npruned: %q\nπ = %s\ngrammar:\n%s\ndoc: %s",
					seed, src, Serialize(orig), Serialize(after), pr, d, doc.XML())
			}
		}
	}
}
