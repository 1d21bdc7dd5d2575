package scan

// Two-stage parallel pruner. Stage 1 (internal/index) builds a
// structural index of the whole document in parallel. The planner then
// cuts the index into content ranges — children of the root, recursing
// into dominant subtrees, kept or skipped alike — and a worker pool
// prunes each range concurrently with the ordinary pruner machinery
// over zero-copy sub-slices (ResetBytes). Finally the serial "spine"
// pruner runs over the document with a splice set: everything outside
// the delegated ranges (prolog, context start/end tags, stray text) is
// processed exactly as in a serial prune, and at each cut point the
// pre-computed fragment result is folded in — output bytes
// concatenated in order, context-level validation events replayed
// through the live content-model DFA, stats summed — and the scanner
// jumps past the range. Output and verdicts are byte-for-byte those of
// the serial pruner.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"xmlproj/internal/dtd"
	"xmlproj/internal/index"
)

// ParallelOptions configures PruneParallel.
type ParallelOptions struct {
	Options
	// Workers bounds both stage-1 indexing and stage-2 fragment
	// concurrency; 0 means GOMAXPROCS.
	Workers int
	// ChunkSize overrides the stage-1 byte-chunk granularity (0 = auto).
	ChunkSize int
	// FragTarget overrides the per-fragment target size in bytes
	// (0 = auto from input size and worker count). Tests use tiny values
	// to force many fragments on small documents.
	FragTarget int
}

// ParallelDetail reports how a parallel prune was executed.
type ParallelDetail struct {
	// IndexTime, PruneTime and StitchTime are the wall times of the
	// structural-index stage, the parallel fragment stage, and the
	// sequential spine/splice pass.
	IndexTime, PruneTime, StitchTime time.Duration
	// Workers is the resolved worker count; Tasks the number of
	// delegated content ranges.
	Workers, Tasks int
	// Fallback is true when the input was handed to the serial pruner
	// (unindexable structure, or a token cap too small for the parallel
	// invariants).
	Fallback bool
}

// PruneParallel prunes data with the two-stage parallel pruner, writing
// output byte-identical to Prune's to bw. Inputs the structural index
// cannot describe fall back to the serial pruner, which re-reads data
// through the scanner and so reproduces the exact serial verdict,
// MaxTokenSize enforcement included.
func PruneParallel(bw *bufio.Writer, data []byte, d *dtd.DTD, proj *dtd.Projection, opts ParallelOptions) (Stats, ParallelDetail, error) {
	var det ParallelDetail
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	det.Workers = workers
	maxTok := opts.MaxTokenSize
	if maxTok <= 0 {
		maxTok = DefaultMaxTokenSize
	}
	serial := func() (Stats, ParallelDetail, error) {
		det.Fallback = true
		st, err := Prune(Source{R: bytes.NewReader(data)}, Sink{W: bw}, d, proj, opts.Options)
		return st, det, err
	}
	if maxTok < defaultBufSize {
		// The serial scanner's buffer starts at defaultBufSize and only
		// consults the cap when it has to grow, so under a cap this tight
		// it accepts tokens stage 1's per-construct bound would reject;
		// the serial pruner gives the exact verdict.
		return serial()
	}

	// The fragment target is fixed before indexing: the planner never
	// looks inside an element of at most twice the target, so the index
	// need not keep what is in one.
	target := opts.FragTarget
	if target <= 0 {
		target = index.FragTarget(len(data), workers)
	}

	t0 := time.Now()
	//lint:ignore SA1019 this engine is what Build is kept for
	ix, err := index.Build(data, index.Options{
		Workers:      workers,
		ChunkSize:    opts.ChunkSize,
		MaxTokenSize: maxTok,
		Lookup:       proj.Syms.Lookup,
		Collapse:     2 * target,
	})
	det.IndexTime = time.Since(t0)
	if err != nil {
		if errors.Is(err, index.ErrTokenTooLong) {
			// Matches the serial scanner's cap, detected before any
			// fragment buffers the oversized token.
			return Stats{}, det, fmt.Errorf("%w: %v", ErrTokenTooLong, err)
		}
		return serial()
	}
	defer ix.Release()

	tasks := plan(ix, proj, target)
	det.Tasks = len(tasks)

	t1 := time.Now()
	if len(tasks) > 0 {
		runTasks(data, d, proj, opts.Options, tasks, workers)
	}
	det.PruneTime = time.Since(t1)

	t2 := time.Now()
	pr := prunerPool.Get().(*pruner)
	pr.s.ResetBytes(data)
	pr.prep(d, proj, opts.Options)
	pr.use(Sink{W: bw})
	if len(tasks) > 0 {
		pr.sp = &spliceSet{tasks: tasks}
	}
	st, err := pr.finish(pr.run())
	det.StitchTime = time.Since(t2)

	for _, t := range tasks {
		if t.res.sl != nil {
			t.res.sl.Close()
			t.res.sl = nil
		}
	}
	return st, det, err
}

// runTasks prunes the delegated ranges on a worker pool.
func runTasks(data []byte, d *dtd.DTD, proj *dtd.Projection, opts Options, tasks []*fragTask, workers int) {
	if workers > len(tasks) {
		workers = len(tasks)
	}
	ch := make(chan *fragTask)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				runTask(data, d, proj, opts, t)
			}
		}()
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()
}

// runTask prunes one range. Kept ranges record their output into a
// pooled span-gather list with absolute offsets (ResetBytesAt), so the
// spine's splice is list concatenation instead of a buffer copy; skip
// ranges never emit and run against the discard emitter — there is no
// writer here at all, so nothing can flush into a nil destination.
func runTask(data []byte, d *dtd.DTD, proj *dtd.Projection, opts Options, t *fragTask) {
	pr := prunerPool.Get().(*pruner)
	pr.s.ResetBytesAt(data, t.lo, t.hi)
	pr.prep(d, proj, opts)
	if t.skip {
		pr.useDiscard()
		t.res.err = pr.runSkipFragment()
	} else {
		t.res.sl = NewSpanList(data)
		pr.use(Sink{Spans: t.res.sl})
		t.res.err = pr.runFragment(t.ctxSym, t.ctxBase)
		t.res.events = append([]int32(nil), pr.events...)
	}
	t.res.st, t.res.err = pr.finish(t.res.err)
}

// planner cuts the structural index into delegated content ranges.
type planner struct {
	ents        []index.Entry
	p           *dtd.Projection
	target      int
	depthBudget int
	tasks       []*fragTask
}

// plan builds the task list: content ranges cut at element-tag
// boundaries, grouped to roughly target bytes, recursing into children
// larger than twice the target so a handful of dominant subtrees (an
// XMark root has only six children) still decompose across workers.
func plan(ix *index.Index, proj *dtd.Projection, target int) []*fragTask {
	if ix.RootStart < 0 || ix.RootEnd <= ix.RootStart {
		return nil
	}
	root := ix.Entries[ix.RootStart]
	if root.Sym < 0 {
		// Undeclared root: the spine errors at the tag before any splice.
		return nil
	}
	pl := &planner{
		ents:        ix.Entries,
		p:           proj,
		target:      target,
		depthBudget: 64,
	}
	kept := proj.KeepElem(root.Sym)
	pl.content(ix.RootStart, kept, root.Sym)
	return pl.tasks
}

// content plans the content of the element whose Start entry is pi,
// emitting tasks in document order.
func (pl *planner) content(pi int, kept bool, sym int32) {
	pd := pl.ents[pi].Depth
	end := int(pl.ents[pi].Match)
	endOff := pl.ents[end].Off // the parent's end tag: a valid cut point
	ctxBase := int(pd) + 1

	groupLo, acc := -1, 0
	closeAt := func(off int) {
		if groupLo >= 0 && off > groupLo {
			pl.tasks = append(pl.tasks, &fragTask{
				lo: groupLo, hi: off,
				skip:    !kept,
				ctxSym:  sym,
				ctxBase: ctxBase,
			})
		}
		groupLo, acc = -1, 0
	}

	i := pi + 1
	for i < end {
		e := &pl.ents[i]
		var spanEnd, next int
		switch e.Kind {
		case index.StartEmpty, index.Element:
			spanEnd, next = e.End, i+1
		case index.Start:
			m := int(e.Match)
			spanEnd, next = pl.ents[m].End, m+1
		default:
			// Comments, PIs and CDATA are not cut points; they ride
			// inside whichever range covers them.
			i++
			continue
		}
		size := spanEnd - e.Off
		if acc >= pl.target {
			closeAt(e.Off)
		}
		if e.Kind == index.Start && size > 2*pl.target && pl.depthBudget > 0 &&
			(!kept || e.Sym >= 0) {
			// Dominant subtree: the spine handles its start and end tags;
			// its content decomposes recursively.
			closeAt(e.Off)
			childKept := kept && e.Sym >= 0 && pl.p.KeepElem(e.Sym)
			pl.depthBudget--
			pl.content(i, childKept, e.Sym)
			pl.depthBudget++
			i = next
			continue
		}
		if groupLo < 0 {
			groupLo = e.Off
		}
		acc += size
		i = next
	}
	closeAt(endOff)
}
