package scan

// Parallel-prune fragments and splices. A parallel prune (see
// parallel.go) cuts the document's content into byte ranges at element
// tag boundaries; worker pruners process each range concurrently, and
// the serial "spine" pruner — running over the whole document — splices
// each range's pre-computed result in at its cut point instead of
// re-scanning the bytes. The cut rule (a range starts and ends at an
// element tag, never inside text, at a comment, or mid-construct)
// guarantees logical text runs never span a cut: the serial pruner
// flushes a pending run exactly at element tags, so a fragment flushing
// at its EOF reproduces the flush the spine would have done at the tag
// that follows the range.

import (
	"fmt"
)

// fragTask is one delegated content range [lo, hi) of the document.
type fragTask struct {
	lo, hi int
	// skip marks a range inside a discarded subtree: processed for
	// well-formedness and stats only, with no output and no events.
	skip bool
	// ctxSym and ctxBase describe a kept range's context element (the
	// parent whose children the range holds) and its stack depth.
	ctxSym  int32
	ctxBase int

	// ready, when non-nil, is closed by the worker once res is
	// populated; the spine blocks on it before splicing. The batch
	// parallel pruner leaves it nil — there the worker pool is joined
	// before the spine starts. The pipelined pruner overlaps the two
	// and needs the per-task handshake.
	ready chan struct{}

	res fragResult
}

// fragResult is what a worker produced for one range. Output is a
// span-gather list over the whole document (workers scan with absolute
// offsets via ResetBytesAt), so the spine folds it in by concatenation
// — or, on the streaming path, with a single copy out of the input.
type fragResult struct {
	st     Stats
	events []int32
	sl     *SpanList
	err    error
}

// spliceSet is the spine's ordered view of the delegated ranges.
type spliceSet struct {
	tasks []*fragTask
	i     int
}

// at reports whether pos is the next splice point.
func (sp *spliceSet) at(pos int) bool {
	return sp.i < len(sp.tasks) && sp.tasks[sp.i].lo == pos
}

// applySplice folds the next delegated range's result into the spine at
// its cut point: flush the pending text run (it would be flushed at the
// element tag the range starts with), replay the fragment's
// context-level events through the live content-model state, write the
// fragment's output, fold its stats, surface its error, and jump the
// scanner past the range. Event replay precedes the fragment's own
// error because every recorded event happened earlier in document order
// than the point where the fragment stopped. The spine has one
// projector, so every mask here is bit 0.
func (pr *pruner) applySplice() error {
	t := pr.sp.tasks[pr.sp.i]
	pr.sp.i++
	if t.ready != nil {
		<-t.ready
	}
	pr.flushText()
	if pr.alive == 0 {
		return nil
	}
	res := &t.res
	if pr.opts.Validate {
		top := &pr.stack[len(pr.stack)-1]
		for _, ev := range res.events {
			if ev == eventText {
				if top.state = top.aut.NextText(top.state); top.state < 0 {
					pr.kill(1, fmt.Errorf("text content not allowed in %s", pr.p.Syms.Info(top.sym).Name))
					return nil
				}
			} else if top.state = top.aut.Next(top.state, ev); top.state < 0 {
				pr.kill(1, fmt.Errorf("element %s not allowed here in content of %s",
					pr.p.Syms.Info(ev).Name, pr.p.Syms.Info(top.sym).Name))
				return nil
			}
		}
	}
	if res.sl != nil && res.sl.Len() > 0 {
		pr.closeOpen(1)
		pr.flushRun(0)
		pr.outs[0].splice(res.sl)
	}
	pr.foldStats(&res.st)
	if res.err != nil {
		return res.err
	}
	pr.s.pos = t.hi
	return nil
}

// applySkipSplice is applySplice for a range inside a discarded
// subtree: stats only — no output, no events, no validation.
func (pr *pruner) applySkipSplice() error {
	t := pr.sp.tasks[pr.sp.i]
	pr.sp.i++
	if t.ready != nil {
		<-t.ready
	}
	pr.foldStats(&t.res.st)
	if t.res.err != nil {
		return t.res.err
	}
	pr.s.pos = t.hi
	return nil
}

func (pr *pruner) foldStats(st *Stats) {
	pr.st.ElementsIn += st.ElementsIn
	pr.st.TextIn += st.TextIn
	own := &pr.per[0].st
	own.ElementsOut += st.ElementsOut
	own.TextOut += st.TextOut
	own.ElementsSkipped += st.ElementsSkipped
	own.TextSkipped += st.TextSkipped
	if st.MaxDepth > own.MaxDepth {
		own.MaxDepth = st.MaxDepth
	}
}

// runFragment prunes one kept content range. The scanner is already
// reset over the range's bytes; the stack is seeded with ctxBase live
// frames (only the top one's symbol matters — ancestor end tags are
// outside the range) so stack depth equals real document depth and
// MaxDepth folds by max.
func (pr *pruner) runFragment(ctxSym int32, ctxBase int) error {
	pr.mode = modeFragment
	pr.ctxBase = ctxBase
	pr.stack = pr.stack[:0]
	for i := 0; i < ctxBase; i++ {
		pr.stack = append(pr.stack, frame{sym: -1, live: 1})
	}
	pr.stack[ctxBase-1].sym = ctxSym
	pr.sawRoot = true
	return pr.run()
}

// runSkipFragment processes one range inside a discarded subtree with
// the skip scan's exact semantics — full well-formedness checks, skipped
// element and logical-text-run counting, nothing materialised.
func (pr *pruner) runSkipFragment() error {
	pr.mode = modeSkipFragment
	return pr.skipAll()
}
