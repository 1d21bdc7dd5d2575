package prune

// Three-level fuzzing of Thm. 4.5: random DTDs × random valid documents ×
// random queries. This is the strongest soundness net in the repository —
// it exercises grammar shapes (recursion, unions, optionality,
// attributes) that the fixed benchmark DTDs cannot.

import (
	"testing"

	"xmlproj/internal/core"
	"xmlproj/internal/gen"
	"xmlproj/internal/tree"
	"xmlproj/internal/validate"
	"xmlproj/internal/xpath"
	"xmlproj/internal/xpathl"
)

func fuzzRound(t *testing.T, dtdSeed int64, recursive bool) {
	t.Helper()
	d := gen.RandomDTD(dtdSeed, gen.DTDOptions{Elements: 9, AllowRecursion: recursive})
	qg := gen.NewQueryGen(d, dtdSeed*31+7, gen.QueryOptions{MaxSteps: 4, MaxPreds: 2, AllAxes: true})

	docs := make([]*tree.Document, 3)
	for i := range docs {
		docs[i] = gen.New(d, dtdSeed*17+int64(i), gen.Options{MaxDepth: 6}).Document()
		if err := validate.Document(d, docs[i]); err != nil {
			t.Fatalf("dtd seed %d: generated invalid document: %v\ngrammar:\n%s", dtdSeed, err, d)
		}
	}

	for qi := 0; qi < 25; qi++ {
		q := qg.Query()
		src := q.String()
		paths, err := xpathl.FromQuery(q)
		if err != nil {
			t.Fatalf("dtd seed %d: approximate %q: %v", dtdSeed, src, err)
		}
		pr, err := core.Infer(d, paths)
		if err != nil {
			t.Fatalf("dtd seed %d: infer %q: %v", dtdSeed, src, err)
		}
		for di, doc := range docs {
			orig, err := xpath.NewEvaluator(doc).Eval(q)
			if err != nil {
				t.Fatalf("%q on original: %v", src, err)
			}
			ons := orig.(xpath.NodeSet)
			pruned := Tree(doc, pr.Compiled())
			if pruned.Root == nil {
				if len(ons) != 0 {
					t.Fatalf("dtd seed %d doc %d: %q selects %d nodes but π = %s pruned everything\ngrammar:\n%s\ndoc: %s",
						dtdSeed, di, src, len(ons), pr, d, doc.XML())
				}
				continue
			}
			after, err := xpath.NewEvaluator(pruned).Eval(q)
			if err != nil {
				t.Fatalf("%q on pruned: %v", src, err)
			}
			pns := after.(xpath.NodeSet)
			os, ps := resultSet(ons), resultSet(pns)
			if len(os) != len(ps) {
				t.Fatalf("dtd seed %d doc %d: %q: %d results before, %d after pruning\nπ = %s\ngrammar:\n%s\ndoc: %s\npruned: %s",
					dtdSeed, di, src, len(os), len(ps), pr, d, doc.XML(), pruned.XML())
			}
			for k := range os {
				if !ps[k] {
					t.Fatalf("dtd seed %d doc %d: %q lost node %s", dtdSeed, di, src, k)
				}
			}
		}
	}
}

func TestFuzzSoundnessNonRecursiveDTDs(t *testing.T) {
	rounds := int64(20)
	if testing.Short() {
		rounds = 4
	}
	for seed := int64(0); seed < rounds; seed++ {
		fuzzRound(t, seed, false)
	}
}

func TestFuzzSoundnessRecursiveDTDs(t *testing.T) {
	rounds := int64(20)
	if testing.Short() {
		rounds = 4
	}
	for seed := int64(100); seed < 100+rounds; seed++ {
		fuzzRound(t, seed, true)
	}
}
