// Package bench is the experiment harness reproducing the paper's §6
// evaluation: Table 1 (pruning selectivity, speed-up, memory), Figures 4
// and 5 (per-query time and memory on original vs pruned documents), the
// pruning-overhead measurements, and the comparison against the
// path-based baseline of [14].
//
// The engine here is this repository's in-memory XPath/XQuery evaluator
// (the Galax stand-in), so absolute numbers differ from the paper's;
// the reproduction target is the shape: which queries prune hard, the
// speed-up and memory factors, and the fact that pruning itself is a
// cheap one-pass scan.
//
// Defended by: Table 1 and Figs. 4–5 (§6), which cmd/xbench and bench_test.go regenerate.
package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"xmlproj/internal/core"
	"xmlproj/internal/dtd"
	"xmlproj/internal/pathproj"
	"xmlproj/internal/prune"
	"xmlproj/internal/tree"
	"xmlproj/internal/xmark"
	"xmlproj/internal/xpath"
	"xmlproj/internal/xpathl"
	"xmlproj/internal/xpathmark"
	"xmlproj/internal/xquery"
)

// QuerySpec is one benchmark query.
type QuerySpec struct {
	ID     string
	Source string
	XQuery bool
}

// AllQueries returns the full benchmark set: XMark QM01–QM20 (XQuery) and
// XPathMark QP01–QP23 (XPath).
func AllQueries() []QuerySpec {
	var out []QuerySpec
	for _, q := range xmark.Queries {
		out = append(out, QuerySpec{ID: q.ID, Source: q.Source, XQuery: true})
	}
	for _, q := range xpathmark.Queries {
		out = append(out, QuerySpec{ID: q.ID, Source: q.Source})
	}
	return out
}

// QueryByID finds a query in the benchmark set.
func QueryByID(id string) (QuerySpec, bool) {
	for _, q := range AllQueries() {
		if q.ID == id {
			return q, true
		}
	}
	return QuerySpec{}, false
}

// Workload is a generated XMark document plus its DTD.
type Workload struct {
	D        *dtd.DTD
	Doc      *tree.Document
	DocBytes []byte
	Factor   float64
}

// NewWorkload generates an XMark document at the given scale factor.
func NewWorkload(factor float64, seed int64) *Workload {
	d := xmark.DTD()
	doc := xmark.NewGenerator(factor, seed).Document()
	var buf bytes.Buffer
	if err := doc.WriteXML(&buf); err != nil {
		panic(err)
	}
	return &Workload{D: d, Doc: doc, DocBytes: buf.Bytes(), Factor: factor}
}

// Projector infers the type projector for a query (with the §5 heuristic
// for XQuery, materialised needs for XPath).
func (w *Workload) Projector(q QuerySpec) (*core.Projector, error) {
	paths, err := w.DataNeeds(q)
	if err != nil {
		return nil, err
	}
	if q.XQuery {
		return core.Infer(w.D, paths)
	}
	return core.InferMaterialized(w.D, paths)
}

// DataNeeds returns the XPathℓ paths extracted from a query.
func (w *Workload) DataNeeds(q QuerySpec) ([]*xpathl.Path, error) {
	if q.XQuery {
		ast, err := xquery.Parse(q.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.ID, err)
		}
		return xquery.Extract(xquery.RewriteForIf(ast)), nil
	}
	e, err := xpath.Parse(q.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.ID, err)
	}
	return xpathl.FromQuery(e)
}

// Evaluate runs the query over a document and returns the engine's
// visited-node count and a function rendering the serialised result
// (used for equality checks). An XQuery result is serialised here, as
// part of the run; an XPath node set only when render is called, so a
// run timed without it is the evaluation alone.
func Evaluate(q QuerySpec, doc *tree.Document) (render func() string, visited int64, err error) {
	if q.XQuery {
		ast, err := xquery.Parse(q.Source)
		if err != nil {
			return nil, 0, err
		}
		ev := xquery.NewEvaluator(doc)
		s, err := ev.Eval(ast)
		if err != nil {
			return nil, 0, err
		}
		res := xquery.Serialize(s)
		return func() string { return res }, ev.Visited(), nil
	}
	ast, err := xpath.Parse(q.Source)
	if err != nil {
		return nil, 0, err
	}
	ev := xpath.NewEvaluator(doc)
	v, err := ev.Eval(ast)
	if err != nil {
		return nil, 0, err
	}
	ns, _ := v.(xpath.NodeSet)
	return func() string { return xquery.SerializeNodes(ns) }, ev.Visited, nil
}

// Measured captures one load-and-query run: the cost model of a
// main-memory engine (parse the document, then evaluate).
type Measured struct {
	// Time is wall time for parse + evaluate.
	Time time.Duration
	// AllocBytes is the total allocation during parse + evaluate — the
	// paper's "main memory usage" proxy.
	AllocBytes uint64
	// Visited counts nodes the engine touched during evaluation.
	Visited int64
	// Result is the serialised query result, rendered after the run's
	// time and allocations are read.
	Result string
}

// MeasureRun parses docBytes and evaluates q over it, measuring time and
// allocations.
func MeasureRun(q QuerySpec, docBytes []byte) (Measured, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	doc, err := tree.ParseBytes(docBytes)
	if err != nil {
		return Measured{}, err
	}
	render, visited, err := Evaluate(q, doc)
	if err != nil {
		return Measured{}, err
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return Measured{
		Time:       elapsed,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Visited:    visited,
		Result:     render(),
	}, nil
}

// Row is one Table 1 row.
type Row struct {
	ID string
	// OrigBytes / PrunedBytes are document sizes on disk.
	OrigBytes, PrunedBytes int64
	// SizePercent is 100 · pruned/original (Table 1 "Gain in Size").
	SizePercent float64
	// InferTime is the static-analysis time (paper: < 0.5 s always).
	InferTime time.Duration
	// PruneTime is the one-pass streaming prune time.
	PruneTime time.Duration
	// Orig and Pruned are the engine runs on each document.
	Orig, Pruned Measured
	// Speedup is Orig.Time / Pruned.Time (Table 1 "Gain in Speed").
	Speedup float64
	// MemRatio is Orig.AllocBytes / Pruned.AllocBytes (Figure 5's gain).
	MemRatio float64
}

// MaxDocAt estimates the paper's Table 1 first row — the largest original
// document processable under the given memory budget when pruning first:
// budget divided by the pruned run's allocation per original byte.
func (r Row) MaxDocAt(budget int64) int64 {
	if r.Pruned.AllocBytes == 0 {
		return 0
	}
	perByte := float64(r.Pruned.AllocBytes) / float64(r.OrigBytes)
	return int64(float64(budget) / perByte)
}

// RunQuery executes the full pipeline for one query: infer → prune →
// evaluate on both documents → compare. It returns an error if the
// results differ (soundness is re-checked on every benchmark run).
func RunQuery(w *Workload, q QuerySpec) (Row, error) {
	row := Row{ID: q.ID, OrigBytes: int64(len(w.DocBytes))}

	start := time.Now()
	pr, err := w.Projector(q)
	if err != nil {
		return row, err
	}
	row.InferTime = time.Since(start)

	var pruned bytes.Buffer
	start = time.Now()
	if _, err := prune.Stream(&pruned, bytes.NewReader(w.DocBytes), w.D, nil, prune.StreamOptions{Projection: pr.Compiled()}); err != nil {
		return row, fmt.Errorf("%s: prune: %w", q.ID, err)
	}
	row.PruneTime = time.Since(start)
	row.PrunedBytes = int64(pruned.Len())
	row.SizePercent = 100 * float64(row.PrunedBytes) / float64(row.OrigBytes)

	if row.Orig, err = MeasureRun(q, w.DocBytes); err != nil {
		return row, fmt.Errorf("%s: original run: %w", q.ID, err)
	}
	if row.Pruned, err = MeasureRun(q, pruned.Bytes()); err != nil {
		return row, fmt.Errorf("%s: pruned run: %w", q.ID, err)
	}
	if row.Orig.Result != row.Pruned.Result {
		return row, fmt.Errorf("%s: result differs on pruned document (soundness violation)", q.ID)
	}
	if row.Pruned.Time > 0 {
		row.Speedup = float64(row.Orig.Time) / float64(row.Pruned.Time)
	}
	if row.Pruned.AllocBytes > 0 {
		row.MemRatio = float64(row.Orig.AllocBytes) / float64(row.Pruned.AllocBytes)
	}
	return row, nil
}

// BaselineComparison contrasts type-based projection with the [14]
// path-based baseline on one query.
type BaselineComparison struct {
	ID string
	// TypePrunedBytes / PathPrunedBytes compare precision.
	TypePrunedBytes, PathPrunedBytes int64
	// TypeVisited / PathVisited compare pruning work: the type-driven
	// pruner skips discarded subtrees, the baseline must visit everything.
	TypeVisited, PathVisited int64
	// PathExact is false when the baseline had to degrade (predicates or
	// backward axes).
	PathExact bool
}

// RunBaseline compares the two pruners on one query.
func RunBaseline(w *Workload, q QuerySpec) (BaselineComparison, error) {
	out := BaselineComparison{ID: q.ID}
	paths, err := w.DataNeeds(q)
	if err != nil {
		return out, err
	}
	pr, err := w.Projector(q)
	if err != nil {
		return out, err
	}
	// The pruner's visited work = elements it actually saw.
	typePruned, st, err := prune.Load(bytes.NewReader(w.DocBytes), w.D, nil, prune.StreamOptions{Projection: pr.Compiled()})
	if err != nil {
		return out, err
	}
	out.TypePrunedBytes = typePruned.SerializedSize()
	// Visited work = nodes the pruner surfaced on kept paths; the tokens
	// scanned past inside discarded subtrees (now included in ElementsIn /
	// TextIn) are cheap scanner work, not per-node pruning decisions.
	out.TypeVisited = (st.ElementsIn - st.ElementsSkipped) + (st.TextIn - st.TextSkipped)

	// The type projector above is materialised (for XPath queries), so
	// hand the baseline the materialised needs too — otherwise it would
	// look more precise simply because it keeps less of the result.
	lowered := paths
	if !q.XQuery {
		lowered = make([]*xpathl.Path, len(paths))
		for i, p := range paths {
			lowered[i] = core.Materialize(p)
		}
	}
	bp, exact := pathproj.FromXPathL(lowered)
	out.PathExact = exact
	pathPruned, pstats := pathproj.Prune(w.Doc, bp)
	out.PathPrunedBytes = pathPruned.SerializedSize()
	out.PathVisited = pstats.Visited
	return out, nil
}
