package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestAllQueriesListed(t *testing.T) {
	qs := AllQueries()
	if len(qs) != 43 {
		t.Fatalf("%d queries, want 20 + 23", len(qs))
	}
	if q, ok := QueryByID("QM07"); !ok || !q.XQuery {
		t.Fatal("QM07 lookup")
	}
	if q, ok := QueryByID("QP07"); !ok || q.XQuery {
		t.Fatal("QP07 lookup")
	}
	if _, ok := QueryByID("XX"); ok {
		t.Fatal("bogus lookup")
	}
}

func TestRunQueryPipeline(t *testing.T) {
	w := NewWorkload(0.002, 1)
	for _, id := range []string{"QM01", "QM06", "QP01", "QP13", "QP21"} {
		q, _ := QueryByID(id)
		row, err := RunQuery(w, q)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if row.PrunedBytes <= 0 || row.PrunedBytes > row.OrigBytes {
			t.Errorf("%s: pruned size %d of %d", id, row.PrunedBytes, row.OrigBytes)
		}
		if row.Orig.Result != row.Pruned.Result {
			t.Errorf("%s: results differ", id)
		}
	}
}

func TestSelectiveQueriesPruneHard(t *testing.T) {
	w := NewWorkload(0.004, 2)
	q, _ := QueryByID("QM01") // person0's name: nearly everything goes
	row, err := RunQuery(w, q)
	if err != nil {
		t.Fatal(err)
	}
	if row.SizePercent > 20 {
		t.Errorf("QM01 keeps %.1f%%, want highly selective", row.SizePercent)
	}
	q, _ = QueryByID("QP13") // /site//node(): keeps everything
	row, err = RunQuery(w, q)
	if err != nil {
		t.Fatal(err)
	}
	if row.SizePercent < 90 {
		t.Errorf("QP13 keeps %.1f%%, want nearly everything", row.SizePercent)
	}
}

func TestBaselineComparisonShape(t *testing.T) {
	w := NewWorkload(0.002, 3)
	// QP05 has a descendant predicate: the baseline degrades, the
	// type-based projector does not.
	q, _ := QueryByID("QP05")
	c, err := RunBaseline(w, q)
	if err != nil {
		t.Fatal(err)
	}
	if c.PathExact {
		t.Error("QP05 lowering should be inexact for the baseline")
	}
	if c.TypePrunedBytes >= c.PathPrunedBytes {
		t.Errorf("type-based (%d) should out-prune path-based (%d) on QP05",
			c.TypePrunedBytes, c.PathPrunedBytes)
	}
	// The baseline must visit at least as many nodes as the type pruner
	// on a selective query (it cannot skip under //).
	if c.PathVisited < c.TypeVisited {
		t.Errorf("baseline visited %d < type pruner %d", c.PathVisited, c.TypeVisited)
	}
}

func TestReports(t *testing.T) {
	w := NewWorkload(0.002, 4)
	var rows []Row
	for _, id := range []string{"QM01", "QP01"} {
		q, _ := QueryByID(id)
		r, err := RunQuery(w, q)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	var buf bytes.Buffer
	PrintTable1(&buf, w.Factor, rows)
	PrintFigure4(&buf, rows)
	PrintFigure5(&buf, rows)
	out := buf.String()
	for _, want := range []string{"Table 1", "Figure 4", "Figure 5", "QM01", "QP01", "size%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report misses %q:\n%s", want, out)
		}
	}
	q, _ := QueryByID("QP05")
	c, err := RunBaseline(w, q)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	PrintBaseline(&buf, []BaselineComparison{c})
	if !strings.Contains(buf.String(), "path-pruned") {
		t.Errorf("baseline report:\n%s", buf.String())
	}
}

func TestMeasureRunCountsWork(t *testing.T) {
	w := NewWorkload(0.002, 5)
	q, _ := QueryByID("QP02")
	m, err := MeasureRun(q, w.DocBytes)
	if err != nil {
		t.Fatal(err)
	}
	if m.Time <= 0 || m.AllocBytes == 0 || m.Visited == 0 {
		t.Fatalf("measurement empty: %+v", m)
	}
}

// TestXPathResultIsTheAnswer: an XPath row's result is the serialised
// node set, so two documents with as many answers but different ones
// compare unequal (RunQuery's soundness check reads it).
func TestXPathResultIsTheAnswer(t *testing.T) {
	q := QuerySpec{ID: "t", Source: "//a"}
	m1, err := MeasureRun(q, []byte("<r><a>1</a></r>"))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MeasureRun(q, []byte("<r><a>2</a></r>"))
	if err != nil {
		t.Fatal(err)
	}
	if m1.Result != "<a>1</a>" || m2.Result != "<a>2</a>" {
		t.Fatalf("results %q and %q, want each document's <a>", m1.Result, m2.Result)
	}
}
