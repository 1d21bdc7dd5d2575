package scan

// Pipelined streaming parallel pruner. The two-stage parallel pruner
// (parallel.go) needs the whole document in memory; this one prunes an
// io.Reader of unknown length under a fixed memory bound by overlapping
// four stages:
//
//	reader  — fills pooled window slabs from src (a bounded ring)
//	indexer — incremental structural indexing (index.StreamIndexer)
//	          plus planning: complete sibling subtrees group into
//	          delegated content ranges, exactly like the batch planner
//	workers — prune each range with the ordinary fragment machinery
//	          (ResetBytesAt over the window's bytes)
//	spine   — the calling goroutine: runs the serial pruner over each
//	          window in order, splicing fragment results in at their
//	          cut points, so output is byte-identical to serial
//
// The window-boundary invariant that makes the spine simple: a
// presented window always ends exactly at the end of a complete
// '<'-construct. Everything after the last complete construct — the
// trailing text run, an incomplete tag — is carried into the next
// window, so no token ever straddles a window and the spine pauses
// only at token boundaries (run's top-of-loop, or skipScan's, which
// returns errPause and resumes on the next window). Cross-window
// pruner state (element stack, DFA states, pending text run, deferred
// '>', skip name stack) simply stays in the pruner, which is re-pointed
// at each window with ResetBytesAt.
//
// Memory: ring depth × window size of pooled slabs, plus the carry
// (bounded by MaxTokenSize — a construct or text run that cannot
// complete within the cap fails exactly like the serial scanner's
// sliding-buffer cap would).

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xmlproj/internal/dtd"
	"xmlproj/internal/index"
)

// DefaultPipelineWindow is the default window size for the pipelined
// pruner.
const DefaultPipelineWindow = 1 << 20

// PipelineOptions configures PrunePipelined.
type PipelineOptions struct {
	Options
	// Workers bounds fragment concurrency; 0 means GOMAXPROCS.
	Workers int
	// WindowSize is the pooled window slab size in bytes (0 =
	// DefaultPipelineWindow). Peak pooled memory is RingDepth windows.
	WindowSize int
	// RingDepth is the number of pooled window slabs in flight
	// (0 = Workers+2, at least 4).
	RingDepth int
	// FragTarget overrides the per-fragment target size in bytes
	// (0 = auto from window size and worker count). Tests use tiny
	// values to force many fragments on small documents.
	FragTarget int
}

// PipelineDetail reports how a pipelined prune was executed.
type PipelineDetail struct {
	// ReadTime is time spent in src.Read; IndexTime the incremental
	// index+plan stage; PruneTime the summed fragment-worker time;
	// EmitTime the spine's in-order splice-and-emit pass.
	ReadTime, IndexTime, PruneTime, EmitTime time.Duration
	// Windows is the number of windows presented to the spine; Tasks
	// the number of delegated content ranges; Workers the resolved
	// worker count.
	Windows, Tasks, Workers int
	// PeakWindowBytes is the peak sum of window bytes simultaneously
	// resident between indexing and spine completion — bounded by
	// RingDepth × WindowSize (plus a MaxTokenSize-bounded carry).
	PeakWindowBytes int64
	// Fallback is true when the input was handed to the serial pruner
	// (a token cap too small for the parallel invariants).
	Fallback bool
}

// rawWin is one reader→indexer hand-off: a pooled slab whose payload
// region slab[headroom:headroom+n] holds fresh input bytes. err is the
// terminal read status (io.EOF or a real error) — the reader stops
// after sending it.
type rawWin struct {
	slab []byte
	n    int
	err  error
}

// pipeWin is one indexer→spine window: data is the window's bytes
// (ending at a complete construct unless final or dead), tasks the
// delegated ranges within it, slab the pooled buffer to recycle once
// the spine is done (nil for oversized carry assemblies).
type pipeWin struct {
	slab  []byte
	data  []byte
	tasks []*fragTask
	final bool  // last window: the spine runs modeNormal and end checks
	rerr  error // final window's terminal read status (io.EOF or error)
	dead  bool  // contains a construct the spine is guaranteed to error at
}

// pipeTask pairs a delegated range with the window bytes it indexes
// into.
type pipeTask struct {
	t    *fragTask
	data []byte
}

// pipeCounters are the cross-goroutine stage counters.
type pipeCounters struct {
	readNanos, idxNanos, pruneNanos int64
	windows, tasks                  int64
	resident, peak                  int64
}

func atomicMax(p *int64, v int64) {
	for {
		cur := atomic.LoadInt64(p)
		if v <= cur || atomic.CompareAndSwapInt64(p, cur, v) {
			return
		}
	}
}

// PrunePipelined prunes src with the pipelined streaming parallel
// pruner, writing output byte-identical to Prune's to bw. Memory stays
// bounded by ring depth × window size regardless of document size.
func PrunePipelined(bw *bufio.Writer, src io.Reader, d *dtd.DTD, proj *dtd.Projection, opts PipelineOptions) (Stats, PipelineDetail, error) {
	var det PipelineDetail
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	det.Workers = workers
	maxTok := opts.MaxTokenSize
	if maxTok <= 0 {
		maxTok = DefaultMaxTokenSize
	}
	if maxTok < defaultBufSize {
		// Same rule as the batch parallel pruner: under a cap this tight
		// the serial scanner accepts tokens the per-window bound would
		// reject.
		det.Fallback = true
		st, err := Prune(Source{R: src}, Sink{W: bw}, d, proj, opts.Options)
		return st, det, err
	}

	win := opts.WindowSize
	if win <= 0 {
		win = DefaultPipelineWindow
	}
	if win < 256 {
		win = 256
	}
	// The slab's leading headroom receives the previous window's carry,
	// so the common case (small trailing text run) assembles in place
	// with one small copy and the documented bound — ring × window —
	// counts everything.
	headroom := win / 4
	if headroom > 64<<10 {
		headroom = 64 << 10
	}
	payload := win - headroom

	ring := opts.RingDepth
	if ring <= 0 {
		ring = workers + 2
		if ring < 4 {
			ring = 4
		}
	}
	if ring < 2 {
		ring = 2
	}
	target := opts.FragTarget
	if target <= 0 {
		target = win / (2 * workers)
		const minTarget, maxTarget = 16 << 10, 4 << 20
		if target < minTarget {
			target = minTarget
		}
		if target > maxTarget {
			target = maxTarget
		}
	}
	minFrag := target / 8
	if minFrag < 1 {
		minFrag = 1
	}

	c := new(pipeCounters)
	abort := make(chan struct{})
	// free recycles slabs within this prune; the reader takes new ones
	// from slabPool only while fewer than ring exist, so a body smaller
	// than one window touches one slab and the bound stays ring × window.
	free := make(chan []byte, ring)
	defer func() {
		for len(free) > 0 {
			slab := <-free
			slabPool.Put(&slab)
		}
	}()
	rawCh := make(chan rawWin)
	taskCh := make(chan pipeTask, 4*workers)
	planCh := make(chan *pipeWin, ring)
	var wg sync.WaitGroup

	// Reader: fill each slab's payload region completely (or to the
	// terminal error) and hand it over. The (0, nil) retry bound
	// mirrors the scanner's own fill.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(rawCh)
		zero, made := 0, 0
		for {
			var slab []byte
			if made < ring && len(free) == 0 {
				slab = getSlab(win)
				made++
			} else {
				select {
				case slab = <-free:
				case <-abort:
					return
				}
			}
			n := 0
			var rerr error
			t0 := time.Now()
			for n < payload {
				m, err := src.Read(slab[headroom+n : win])
				n += m
				if err != nil {
					rerr = err
					break
				}
				if m == 0 {
					zero++
					if zero >= 100 {
						rerr = io.ErrNoProgress
						break
					}
				} else {
					zero = 0
				}
			}
			atomic.AddInt64(&c.readNanos, time.Since(t0).Nanoseconds())
			select {
			case rawCh <- rawWin{slab: slab, n: n, err: rerr}:
			case <-abort:
				return
			}
			if rerr != nil {
				return
			}
		}
	}()

	// Indexer + planner: assemble carry+payload, index the window,
	// plan delegated ranges, dispatch them to the workers, then present
	// the window to the spine. Runs until the terminal window (final,
	// dead, or token-cap failure).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(taskCh)
		defer close(planCh)
		// The indexer's entry list and the planner's stacks are a few MB
		// on a 1 MiB window; they are reused across prunes.
		sc := pipeScratchPool.Get().(*pipeScratch)
		si, pl := &sc.si, &sc.pl
		si.Reset()
		si.MaxTokenSize, si.Lookup = maxTok, proj.Syms.Lookup
		pl.p, pl.target, pl.minFrag, pl.stack = proj, target, minFrag, pl.stack[:0]
		carry := sc.carry[:0]
		defer func() {
			// Keep the buffers, not the projection they were used with.
			sc.carry, si.Lookup, pl.p = carry, nil, nil
			pipeScratchPool.Put(sc)
		}()
		present := func(pw *pipeWin) bool {
			for _, t := range pw.tasks {
				t.ready = make(chan struct{})
				select {
				case taskCh <- pipeTask{t: t, data: pw.data}:
				case <-abort:
					return false
				}
			}
			atomic.AddInt64(&c.windows, 1)
			atomic.AddInt64(&c.tasks, int64(len(pw.tasks)))
			atomicMax(&c.peak, atomic.AddInt64(&c.resident, int64(len(pw.data))))
			select {
			case planCh <- pw:
				return true
			case <-abort:
				return false
			}
		}
		for {
			var rw rawWin
			var ok bool
			select {
			case rw, ok = <-rawCh:
			case <-abort:
				return
			}
			if !ok {
				return
			}
			// Assemble the window: carry + fresh payload.
			var data, slab []byte
			if len(carry) <= headroom {
				start := headroom - len(carry)
				copy(rw.slab[start:headroom], carry)
				data = rw.slab[start : headroom+rw.n]
				slab = rw.slab
			} else {
				// Oversized carry (a construct still incomplete after a
				// whole window): assemble privately and recycle the slab
				// now. Bounded by the MaxTokenSize check below.
				buf := make([]byte, 0, len(carry)+rw.n)
				buf = append(buf, carry...)
				buf = append(buf, rw.slab[headroom:headroom+rw.n]...)
				data = buf
				select {
				case free <- rw.slab:
				case <-abort:
					return
				}
			}
			final := rw.err != nil

			t0 := time.Now()
			w := si.Window(data)
			pw := &pipeWin{slab: slab, data: data, final: final, rerr: rw.err}
			switch {
			case w.Err != nil:
				// Token cap exceeded: surface the serial scanner's
				// verdict through the final-window machinery (the spine
				// hits the preset read error at the window's end).
				pw.final = true
				pw.rerr = fmt.Errorf("%w: %v", ErrTokenTooLong, w.Err)
			case w.Dead:
				// The window contains a construct the serial scanner is
				// guaranteed to reject: stop delegating and let the spine
				// reproduce the exact error (modePipe — it errors before
				// the window ends).
				pw.final = false
				pw.dead = true
			default:
				if final {
					if gap := len(data) - w.Consumed; maxTok > 0 && gap > maxTok && rw.err == io.EOF {
						pw.rerr = fmt.Errorf("%w (%d-byte text run)", ErrTokenTooLong, gap)
					}
				} else {
					// Carry the tail (trailing text + incomplete
					// construct) before the spine can recycle the slab.
					carry = append(carry[:0], data[w.Consumed:]...)
					data = data[:w.Consumed]
					pw.data = data
				}
				pw.tasks = pl.window(w.Entries)
			}
			atomic.AddInt64(&c.idxNanos, time.Since(t0).Nanoseconds())
			if !pw.final && !pw.dead && len(pw.data) == 0 {
				// Nothing completed in this window (giant construct in
				// progress): recycle the slab and keep accumulating.
				if slab != nil {
					select {
					case free <- slab:
					case <-abort:
						return
					}
				}
			} else if !present(pw) {
				return
			}
			if pw.final || pw.dead {
				return
			}
			if maxTok > 0 && len(carry) > maxTok {
				// The carry can never complete within the cap; fail like
				// the serial scanner's sliding-buffer cap.
				present(&pipeWin{
					final: true,
					rerr:  fmt.Errorf("%w (%d bytes)", ErrTokenTooLong, maxTok),
				})
				return
			}
		}
	}()

	// Fragment workers.
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case pt, ok := <-taskCh:
					if !ok {
						return
					}
					t0 := time.Now()
					runTask(pt.data, d, proj, opts.Options, pt.t)
					atomic.AddInt64(&c.pruneNanos, time.Since(t0).Nanoseconds())
					close(pt.t.ready)
				case <-abort:
					return
				}
			}
		}()
	}

	// Spine: the calling goroutine consumes windows in order.
	pr := prunerPool.Get().(*pruner)
	pr.s.ResetBytes(nil)
	pr.prep(d, proj, opts.Options)
	pr.use(Sink{W: bw})
	pr.mode = modePipe

	var err error
	var emit time.Duration
	finished := false
	for pw := range planCh {
		pr.s.ResetBytesAt(pw.data, 0, len(pw.data))
		if pw.final {
			pr.mode = modeNormal
			if pw.rerr != nil {
				pr.s.rerr = pw.rerr
			}
		}
		var sp *spliceSet
		if len(pw.tasks) > 0 {
			sp = &spliceSet{tasks: pw.tasks}
		}
		pr.sp = sp
		t0 := time.Now()
		werr := pr.runWindow()
		pr.flushRuns() // nothing may point into the window's slab once it is recycled
		emit += time.Since(t0)
		if werr == errPause {
			werr = nil
		}
		if sp != nil {
			for _, t := range pw.tasks[:sp.i] {
				if t.res.sl != nil {
					t.res.sl.Close()
					t.res.sl = nil
				}
			}
		}
		atomic.AddInt64(&c.resident, -int64(len(pw.data)))
		if pw.slab != nil {
			select {
			case free <- pw.slab:
			default:
			}
		}
		if werr == nil {
			// Desync guards: a dead window must have errored, and every
			// delegated range must have been reached. Both are proven
			// unreachable by the indexer's ground-truth invariant; the
			// guards turn a would-be silent corruption into an error.
			if pw.dead {
				werr = fmt.Errorf("scan: pipelined prune desynchronised (malformed window passed)")
			} else if sp != nil && sp.i < len(pw.tasks) {
				werr = fmt.Errorf("scan: pipelined prune desynchronised (%d unapplied ranges)", len(pw.tasks)-sp.i)
			}
		}
		if werr != nil {
			err = werr
			break
		}
		if pw.final {
			finished = true
			break
		}
	}
	close(abort)
	wg.Wait()
	if err == nil && !finished {
		err = fmt.Errorf("scan: pipelined prune ended without a final window")
	}
	st, _ := pr.finish(nil)

	det.ReadTime = time.Duration(atomic.LoadInt64(&c.readNanos))
	det.IndexTime = time.Duration(atomic.LoadInt64(&c.idxNanos))
	det.PruneTime = time.Duration(atomic.LoadInt64(&c.pruneNanos))
	det.EmitTime = emit
	det.Windows = int(atomic.LoadInt64(&c.windows))
	det.Tasks = int(atomic.LoadInt64(&c.tasks))
	det.PeakWindowBytes = atomic.LoadInt64(&c.peak)
	return st, det, err
}

// slabPool recycles window slabs across prunes; pipeScratchPool the
// indexer goroutine's state.
var (
	slabPool        sync.Pool
	pipeScratchPool = sync.Pool{New: func() any { return new(pipeScratch) }}
)

type pipeScratch struct {
	si    index.StreamIndexer
	pl    pipePlanner
	carry []byte
}

func getSlab(n int) []byte {
	if p, _ := slabPool.Get().(*[]byte); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

// runWindow processes one pipelined window: resume a skip scan paused
// at the previous window boundary, then run the spine loop. Returns
// errPause when a non-final window ends inside a skipped subtree.
func (pr *pruner) runWindow() error {
	if pr.skipNames.depth() > 0 {
		if err := pr.skipAll(); err != nil {
			return err
		}
	}
	return pr.run()
}

// pipeFrame is one open element on the pipelined planner's stack:
// the element's symbol and whether it (and every ancestor) is kept —
// which decides whether ranges under it delegate as kept fragments or
// skip fragments.
type pipeFrame struct {
	sym  int32
	kept bool
}

// pipePlanner cuts each window's entries into delegated content
// ranges, with the same rules as the batch planner (plan/content in
// parallel.go): complete sibling subtrees group to roughly target
// bytes, dominant subtrees decompose recursively (here: the persistent
// stack), comments and text ride inside whichever range covers them,
// and everything at document level stays on the spine. The stack
// persists across windows — a Start without its End in this window
// pushes a frame the matching End pops windows later.
type pipePlanner struct {
	p       *dtd.Projection
	target  int
	minFrag int
	stack   []pipeFrame
	match   []int
	mstk    []int
}

func (pl *pipePlanner) window(ents []index.Entry) []*fragTask {
	if len(ents) == 0 {
		return nil
	}
	// Pair in-window Start entries with their End entries; unmatched
	// Starts straddle the window end, unmatched Ends close frames from
	// earlier windows.
	if cap(pl.match) < len(ents) {
		pl.match = make([]int, len(ents))
	}
	match := pl.match[:len(ents)]
	for i := range match {
		match[i] = -1
	}
	stk := pl.mstk[:0]
	for i := range ents {
		switch ents[i].Kind {
		case index.Start:
			stk = append(stk, i)
		case index.End:
			if len(stk) > 0 {
				j := stk[len(stk)-1]
				stk = stk[:len(stk)-1]
				match[j] = i
			}
		}
	}
	pl.mstk = stk[:0]

	var tasks []*fragTask
	groupLo, groupHi, acc := -1, -1, 0
	closeAt := func(off int) {
		if groupLo >= 0 && off-groupLo >= pl.minFrag {
			d := len(pl.stack)
			top := pl.stack[d-1]
			tasks = append(tasks, &fragTask{
				lo: groupLo, hi: off,
				skip:    !top.kept,
				ctxSym:  top.sym,
				ctxBase: d,
			})
		}
		groupLo, groupHi, acc = -1, -1, 0
	}
	push := func(e *index.Entry) {
		parentKept := true
		if n := len(pl.stack); n > 0 {
			parentKept = pl.stack[n-1].kept
		}
		kept := parentKept && e.Sym >= 0 && pl.p.KeepElem(e.Sym)
		pl.stack = append(pl.stack, pipeFrame{sym: e.Sym, kept: kept})
	}

	i := 0
	for i < len(ents) {
		e := &ents[i]
		switch e.Kind {
		case index.Start:
			m := match[i]
			if m < 0 {
				// Straddles the window end: the spine processes the start
				// tag; the subtree's content decomposes in later windows.
				closeAt(e.Off)
				push(e)
				i++
				continue
			}
			if len(pl.stack) == 0 {
				// Document level: the spine handles root (and any stray
				// sibling) tags; content decomposes one level down.
				push(e)
				i++
				continue
			}
			size := ents[m].End - e.Off
			if acc >= pl.target {
				closeAt(e.Off)
			}
			top := pl.stack[len(pl.stack)-1]
			if size > 2*pl.target && (!top.kept || e.Sym >= 0) {
				// Dominant complete subtree: spine takes its tags, its
				// children group at the next level.
				closeAt(e.Off)
				push(e)
				i++
				continue
			}
			if groupLo < 0 {
				groupLo = e.Off
			}
			acc += size
			groupHi = ents[m].End
			i = m + 1
		case index.StartEmpty:
			if len(pl.stack) == 0 {
				i++
				continue
			}
			if acc >= pl.target {
				closeAt(e.Off)
			}
			if groupLo < 0 {
				groupLo = e.Off
			}
			acc += e.End - e.Off
			groupHi = e.End
			i++
		case index.End:
			// Closes the current context: the group ends before the end
			// tag, which the spine processes.
			closeAt(e.Off)
			if len(pl.stack) > 0 {
				pl.stack = pl.stack[:len(pl.stack)-1]
			}
			i++
		default:
			// Comment/PI/CDATA: rides inside an open group's span (group
			// ranges are contiguous) or falls to the spine.
			i++
		}
	}
	if groupLo >= 0 {
		// Window ends with an open group: cut at the end of the last
		// grouped subtree; trailing non-element entries go to the spine.
		closeAt(groupHi)
	}
	return tasks
}
