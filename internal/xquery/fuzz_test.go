package xquery

// Random-DTD × random-document × random-FLWR fuzzing of the full XQuery
// pipeline (extraction → inference → pruning → evaluation), mirroring the
// XPath-level fuzzer in internal/prune.

import (
	"testing"

	"xmlproj/internal/core"
	"xmlproj/internal/gen"
	"xmlproj/internal/testkit"
	"xmlproj/internal/validate"
)

// fuzzRound draws a grammar, a document and queries from seed, and fails
// when a query answers differently on the document pruned by its
// projector.
func fuzzRound(t *testing.T, seed int64, queries int) {
	t.Helper()
	d := gen.RandomDTD(seed, gen.DTDOptions{Elements: 8, AllowRecursion: seed%2 == 1})
	qg := gen.NewQueryGen(d, seed*7+3, gen.QueryOptions{})
	doc := gen.New(d, seed, gen.Options{MaxDepth: 6}).Document()
	if err := validate.Document(d, doc); err != nil {
		t.Fatal(err)
	}
	for range queries {
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
		pruned := testkit.Prune(doc, pr.Compiled())
		if pruned.NumNodes() == 0 {
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

func TestFuzzXQuerySoundness(t *testing.T) {
	rounds, queries := int64(400), 20
	if testing.Short() {
		rounds, queries = 3, 6
	}
	for seed := range rounds {
		fuzzRound(t, seed, queries)
	}
}

// FuzzXQuerySoundness draws the round's seed from the fuzzer. Seeds 1
// and 43 failed while a variable inside a predicate lost its data needs,
// and 70 and 83 while a returned element lost its descendants' attributes.
func FuzzXQuerySoundness(f *testing.F) {
	for _, seed := range []int64{1, 43, 70, 83} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		fuzzRound(t, seed, 20)
	})
}
