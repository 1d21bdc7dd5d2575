package scan

// The pruning automaton. One pass of the byte-level scanner evaluates
// the N ≥ 1 projectors of a compiled decision table (dtd.Projection)
// simultaneously: per-symbol keep-element / keep-text / per-attribute
// bitmasks over the projectors, and a "live set" bitmask threaded
// through the element stack — bit j set means projector j keeps every
// element on the path, so this region of the document is being emitted
// for j. A child's live set is always a subset of its parent's, so the
// masks shrink monotonically with depth and a subtree whose live set is
// empty is dead for every projector: it is consumed once by the skip
// scan (checked token by token with Validate, only balanced without —
// skip.go), its skipped-node counts distributed to all projectors. The
// serial pruner is the N = 1 case: every mask is 0 or 1 and the one
// output is a bufio.Writer, a gather list or nothing; with N > 1 each
// projector writes its own gather list and renders exactly what a run
// with that projector alone would.
//
// Output is written through the emitter seam as spans of the scanner's
// buffer wherever the input already is the canonical rendering — tags
// with nothing dropped, end tags, text with nothing to escape — and as
// synthesized bytes otherwise. Adjacent spans merge into one pending run
// per projector (rawTo) before they reach the sink — a start tag's
// withheld '>' included, which goes out as the input's own byte when
// the tag did — so a subtree π keeps whole is one gather segment, or
// one Write, without any token handler knowing it is in one. Offsets
// are relative to the scanner's mark, pinned at each token's first
// byte, so they survive buffer refills when the input is a reader.
//
// Validation is per projector: a projector only validates the regions
// it keeps, so with N projectors the verdicts can differ. A validation
// failure kills exactly the projectors that would have seen it alone
// (the emitting-region mask at the failure point, or the keeper mask for
// attribute checks): their error is recorded, their bits leave the
// alive mask, and the scan continues for the rest. Syntax and
// well-formedness errors abort the whole pass: with Validate every
// projector fails on those; without, a projector fails only on the ones
// in what it keeps, so PruneMultiGather gives each surviving projector
// a pass of its own.

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"sync"

	"xmlproj/internal/dtd"
)

// Options configures a scanner-based prune.
type Options struct {
	// Validate checks the document while pruning it: content models,
	// attribute declarations and the root element against the DTD, and
	// well-formedness everywhere, the subtrees π discards included.
	// Without it the prune guarantees well-formedness where π keeps and
	// structural balance where it discards (skip.go says exactly what is
	// and is not seen in there) — sound for the paper's claim, which
	// assumes valid input (Thm. 4.5), and several times faster.
	Validate bool
	// MaxTokenSize bounds the scanner's sliding buffer: a single token
	// (one tag, one text chunk, one attribute value) larger than this
	// fails with scan.ErrTokenTooLong. Zero means DefaultMaxTokenSize.
	MaxTokenSize int
}

// Stats reports what a streaming prune did. Every engine, and every
// projector of a fused pass, reports what the serial scanner reports
// for that projector alone. ElementsIn, ElementsOut, ElementsSkipped,
// TextOut, BytesOut and MaxDepth do not depend on Options.Validate;
// TextIn and TextSkipped do.
type Stats struct {
	// ElementsIn / ElementsOut count element start tags read / elements
	// written. ElementsIn includes the descendants of discarded subtrees:
	// the pruner walks past their tags (without materialising them) to
	// find the matching end tag, so they are part of the input actually
	// scanned.
	ElementsIn, ElementsOut int64
	// TextIn / TextOut count non-whitespace logical text nodes read /
	// written. Consecutive character-data chunks (entity boundaries, CDATA
	// sections) are coalesced into one logical text node before counting,
	// mirroring the tree data model. With Validate, TextIn includes text
	// inside discarded subtrees; without, that text is never classified
	// as whitespace or not, and is not counted.
	TextIn, TextOut int64
	// ElementsSkipped / TextSkipped count the elements and logical text
	// nodes inside discarded subtrees (a subset of ElementsIn / TextIn;
	// the discarded subtree's root element is not included — it was
	// surfaced, and counted, before being discarded). TextSkipped is zero
	// without Validate.
	ElementsSkipped, TextSkipped int64
	// BytesOut counts bytes written to the destination. This package
	// leaves it zero: only the owner of the sink (internal/prune) can
	// count it.
	BytesOut int64
	// MaxDepth is the deepest open-element stack observed — the streaming
	// pruner's working set is proportional to this, not to the document.
	MaxDepth int
}

// prunerPool recycles pruner state — the scanner's sliding buffer, the
// element stack, text and tag scratch — across prunes, so a batch of
// documents pays the allocation cost once, not per document.
var prunerPool = sync.Pool{New: func() any { return newPruner(NewScanner(nil)) }}

func newPruner(s *Scanner) *pruner {
	pr := &pruner{s: s}
	s.beforeFill = pr.flushRuns
	return pr
}

// Prune runs the byte-level pruner with a single projector: src is
// tokenized in place, names resolve through the DTD symbol table, and
// the compiled projection answers keep/skip per element with an array
// lookup. Output written to bw is byte-identical to the
// encoding/xml-based pruner's. Scanner and pruner state come from a
// pool and are returned on completion.
func Prune(bw *bufio.Writer, src io.Reader, d *dtd.DTD, proj *dtd.Projection, opts Options) (Stats, error) {
	pr := prunerPool.Get().(*pruner)
	pr.s.Reset(src)
	pr.prep(d, proj, opts)
	pr.useStream(bw)
	return pr.finish(pr.run())
}

// PruneBytes is Prune over input that is already fully in memory: the
// scanner aliases data (ResetBytes), so nothing is read or copied on
// the input side. MaxTokenSize is not enforced — the cap exists to
// bound the streaming scanner's buffer growth, and an in-memory input
// has no buffer to grow; bound such inputs by size before handing them
// over.
func PruneBytes(bw *bufio.Writer, data []byte, d *dtd.DTD, proj *dtd.Projection, opts Options) (Stats, error) {
	pr := prunerPool.Get().(*pruner)
	pr.s.ResetBytes(data)
	pr.prep(d, proj, opts)
	pr.useStream(bw)
	return pr.finish(pr.run())
}

// PruneGather prunes in-memory input into sl: output is recorded as a
// gather list of input spans plus a small escape buffer of synthesized
// bytes, copying nothing. The rendered output (SpanList.WriteTo,
// AppendTo, Bytes) is byte-identical to Prune's. sl is Reset over data
// first. Like PruneBytes, MaxTokenSize is not enforced.
func PruneGather(sl *SpanList, data []byte, d *dtd.DTD, proj *dtd.Projection, opts Options) (Stats, error) {
	sl.Reset(data)
	pr := prunerPool.Get().(*pruner)
	pr.s.ResetBytes(data)
	pr.prep(d, proj, opts)
	pr.useGather(sl)
	return pr.finish(pr.run())
}

// PruneMultiGather prunes in-memory input against every projector of a fused
// decision table in a single scanner pass. sls must hold one SpanList
// per projector; each is Reset over data and receives that projector's
// output, byte-identical to a PruneGather with the same projector
// alone. The returned slices are per projector: errs[j] is non-nil when
// projector j's own prune would have failed (its SpanList contents are
// then meaningless), and stats[j] are that prune's counters. Like
// PruneGather, MaxTokenSize is not enforced.
func PruneMultiGather(sls []*SpanList, data []byte, d *dtd.DTD, mp *dtd.Projection, opts Options) ([]Stats, []error) {
	if len(sls) != mp.N() {
		panic("scan.PruneMultiGather: len(sls) != mp.N()")
	}
	pr := prunerPool.Get().(*pruner)
	stats := make([]Stats, len(sls))
	errs := make([]error, len(sls))
	// pass runs the projectors in alive over data and records their
	// results, returning who survived to the end of the pass and the
	// pass's own error.
	pass := func(alive uint64) (uint64, error) {
		pr.s.ResetBytes(data)
		pr.prep(d, mp, opts)
		pr.alive = alive
		for _, sl := range sls {
			pr.outs = append(pr.outs, sl)
		}
		for mk := alive; mk != 0; mk &= mk - 1 {
			sls[bits.TrailingZeros64(mk)].Reset(data)
		}
		gerr := pr.run()
		pr.flushRuns()
		for mk := alive; mk != 0; mk &= mk - 1 {
			j := bits.TrailingZeros64(mk)
			stats[j], errs[j] = pr.stats(j), pr.errOf(j, gerr)
		}
		return pr.alive, gerr
	}
	if met, gerr := pass(mp.All()); gerr != nil && !opts.Validate && met&(met-1) != 0 {
		// Without Validate a projector checks only the regions it keeps, so
		// an error the fused pass met in a region another projector keeps
		// need not be this one's: each projector that got that far reports
		// a pass of its own instead.
		for ; met != 0; met &= met - 1 {
			pass(met & -met)
		}
	}
	pr.release()
	prunerPool.Put(pr)
	return stats, errs
}

// prep prepares pooled state for a new input. The caller has already
// pointed the scanner at the input (Reset / ResetBytes / ResetBytesAt)
// and must install one output target per projector (useStream,
// useGather, useDiscard, or appending to outs) before run.
func (pr *pruner) prep(d *dtd.DTD, proj *dtd.Projection, opts Options) {
	pr.s.SetMaxTokenSize(opts.MaxTokenSize)
	pr.d, pr.p, pr.opts = d, proj, opts
	if opts.Validate {
		// The first validating prune of a grammar compiles its dense
		// content-model tables; a prune that does not validate never
		// reads them.
		proj.Syms.CompileDense()
	}
	pr.st = Stats{}
	pr.outs = pr.outs[:0]
	n := proj.N()
	if cap(pr.per) < n {
		pr.per = make([]projState, n)
	}
	pr.per = pr.per[:n]
	for j := range pr.per {
		pp := &pr.per[j]
		pp.st, pp.err, pp.runOff, pp.runEnd = Stats{}, nil, 0, 0
	}
	pr.alive = proj.All()
	pr.stack = pr.stack[:0]
	pr.open, pr.openRaw, pr.begun, pr.sawRoot, pr.runPending = 0, 0, false, false, false
	pr.textBuf = pr.textBuf[:0]
	pr.skipNames.reset()
	pr.skipPending, pr.skipDepth = false, 0
	pr.mode, pr.ctxBase = modeNormal, 0
	pr.events = pr.events[:0]
	pr.sp = nil
}

// useStream targets the buffered-copy output path of a single
// projector. The streamEmitter lives inside the pooled pruner, so
// installing it allocates nothing.
func (pr *pruner) useStream(bw *bufio.Writer) {
	pr.se.bw = bw
	pr.outs = append(pr.outs[:0], &pr.se)
}

// useGather targets a span-gather list (in-memory inputs only: gather
// spans are absolute input offsets, sound only in ResetBytes mode).
func (pr *pruner) useGather(sl *SpanList) { pr.outs = append(pr.outs[:0], sl) }

// useDiscard wires a non-emitting role (skip fragments).
func (pr *pruner) useDiscard() { pr.outs = append(pr.outs[:0], nopEmitter{}) }

// stats composes projector j's counters: what was read is the same for
// every projector, what was kept or skipped is its own.
func (pr *pruner) stats(j int) Stats {
	st := pr.per[j].st
	st.ElementsIn, st.TextIn = pr.st.ElementsIn, pr.st.TextIn
	if !pr.opts.Validate {
		// What j discards is balanced, not read (skipBalance): a text run
		// in there was seen only if another projector keeps it, and alone
		// j would not have counted it.
		st.TextIn -= st.TextSkipped
		st.TextSkipped = 0
	}
	return st
}

// errOf is projector j's verdict given the pass's own error: the
// validation error that killed it, if any, comes first — alone, its
// prune would have stopped there.
func (pr *pruner) errOf(j int, gerr error) error {
	if err := pr.per[j].err; err != nil {
		return err
	}
	return gerr
}

// finish ends a single-projector prune and recycles the pruner.
func (pr *pruner) finish(gerr error) (Stats, error) {
	pr.flushRuns()
	st, err := pr.stats(0), pr.errOf(0, gerr)
	pr.release()
	prunerPool.Put(pr)
	return st, err
}

// release drops references to per-prune inputs so the pool does not pin
// the caller's reader, writers, DTD or projection. Scratch buffers keep
// their capacity — that is the point of pooling.
func (pr *pruner) release() {
	for i := range pr.stack {
		pr.stack[i] = frame{}
	}
	pr.stack = pr.stack[:0]
	for i := range pr.outs {
		pr.outs[i] = nil
	}
	pr.outs = pr.outs[:0]
	for j := range pr.per {
		pr.per[j].err = nil
	}
	pr.s.Reset(nil)
	pr.d, pr.p = nil, nil
	pr.se.bw = nil
}

// frame is one open element.
type frame struct {
	sym    int32
	prefix string        // interned; "" for unprefixed tags
	live   uint64        // projectors keeping every element on this path
	state  int32         // dense content-model DFA state (when validating)
	aut    *dtd.DenseDFA // the element's dense automaton
}

// projState is what one projector owns in a pass.
type projState struct {
	st     Stats  // ElementsOut, TextOut, the skipped counts and MaxDepth
	err    error  // the validation error that killed it
	tagBuf []byte // demoted rendering of the current start tag
	// The pending run: the span buf[runOff:runEnd] of the scanner's
	// buffer is due to its sink but not handed over yet, so that spans
	// adjacent to it extend it instead of costing a call each. It goes
	// out (flushRun) before anything else does, at the end of the pass,
	// and before the bytes it points at move.
	runOff, runEnd int
}

type pruner struct {
	s    *Scanner
	d    *dtd.DTD
	p    *dtd.Projection
	opts Options

	// st counts what is the same for every projector: ElementsIn and
	// TextIn, and the skip scan's running skipped totals, which skipAll
	// hands to the projectors a skipped region is dead for.
	st  Stats
	per []projState

	// outs holds one output target per projector; se backs the single
	// one of the streaming path so installing it never allocates.
	outs []emitter
	se   streamEmitter

	alive uint64 // projectors not yet killed by a validation error
	stack []frame
	// open has a projector's bit while the '>' of the last start tag it
	// was given is provisional, so the element can still come out as
	// <e/>. Where the tag went out as an input span (openRaw) the '>' sits
	// at the end of the pending run, to be taken back if the element
	// self-closes; elsewhere it is withheld and synthesized on demand.
	open, openRaw uint64
	begun         bool // the document's head has been sniffed (run re-enters per pipelined window)
	sawRoot       bool

	// Logical text run: runPending is set when a non-whitespace chunk
	// joined the current run; textBuf holds the decoded bytes not already
	// emitted as a verbatim span.
	runPending bool
	textBuf    []byte

	attrBuf  []byte // shared canonical attr / escaped text / end-tag scratch
	attrVal  []byte // decoded attribute value / discard scratch
	seen     []bool // declared-attribute tracking for #REQUIRED checks
	prefixes map[string]string

	// skipNames are the full names of the discarded elements the skip
	// scan is inside, for their end tags to match.
	skipNames nameStack
	// skipDepth is the structural skip's depth below the one name it
	// keeps, the discarded element's own (skipBalance).
	skipDepth int

	// Parallel-prune roles, single projector only. mode selects the role:
	// modeNormal is the plain pass (also the spine of a parallel prune,
	// when sp is set); modeFragment prunes one content range of a kept
	// context element, recording child-level symbols in events instead of
	// walking the context element's content-model DFA (the spine replays
	// them at the splice point, in document order); modeSkipFragment
	// skip-scans one content range of a discarded element; modePipe is
	// the spine of a pipelined prune over one non-final window — end of
	// input means "window exhausted, more to come", so run returns nil
	// with all cross-window state (stack, DFA states, pending text run,
	// open '>') left in place for the next window. ctxBase is the seeded
	// stack depth a fragment starts and must end at.
	mode    uint8
	ctxBase int
	events  []int32
	sp      *spliceSet

	// skipPending carries skipScan's pending-text-run flag across a
	// modePipe window pause (errPause), so a logical run straddling
	// windows inside a skipped subtree still counts once.
	skipPending bool
}

const (
	modeNormal uint8 = iota
	modeFragment
	modeSkipFragment
	modePipe
)

// errPause is skipScan's internal signal that a modePipe window ended
// mid-subtree: not an error — the pipelined spine resumes the skip scan
// at the start of the next window (pr.skipNames is non-empty).
var errPause = fmt.Errorf("scan: window pause")

// eventText marks a logical text run in a fragment's event stream; other
// values are child element symbols.
const eventText int32 = -1

// maxRun is the length past which a pending run is handed to its sink
// rather than extended: output trails the read position by little more
// than this, at one sink call per 4 KiB of kept input.
const maxRun = 4 << 10

// Mask-fanned emission helpers, one step per set bit. rawTo emits the
// span buf[off:end] of the scanner's buffer: it only extends the
// projector's pending run when adjacent to it. The lit helpers emit
// synthesized bytes, behind the run.

func (pr *pruner) rawTo(mask uint64, off, end int) {
	for ; mask != 0; mask &= mask - 1 {
		j := bits.TrailingZeros64(mask)
		pp := &pr.per[j]
		if pp.runEnd != off || end-pp.runOff > maxRun {
			pr.flushRun(j)
			pp.runOff = off
		}
		pp.runEnd = end
	}
}

func (pr *pruner) flushRun(j int) {
	if pp := &pr.per[j]; pp.runOff < pp.runEnd {
		pr.outs[j].raw(pr.s.buf, pp.runOff, pp.runEnd)
		pp.runOff = pp.runEnd
	}
}

// flushRuns hands every pending run to its sink, short of a provisional
// '>', which is withheld from here on. It is the scanner's beforeFill
// hook — a refill moves the bytes runs point at — and runs at the end of
// a pass or a pipelined window.
func (pr *pruner) flushRuns() {
	for mk := pr.open & pr.openRaw; mk != 0; mk &= mk - 1 {
		pr.per[bits.TrailingZeros64(mk)].runEnd--
	}
	pr.openRaw = 0
	for j := range pr.per {
		pr.flushRun(j)
	}
}

func (pr *pruner) litTo(mask uint64, p []byte) {
	for ; mask != 0; mask &= mask - 1 {
		j := bits.TrailingZeros64(mask)
		pr.flushRun(j)
		pr.outs[j].lit(p)
	}
}

func (pr *pruner) litStringTo(mask uint64, s string) {
	for ; mask != 0; mask &= mask - 1 {
		j := bits.TrailingZeros64(mask)
		pr.flushRun(j)
		pr.outs[j].litString(s)
	}
}

// kill records err for every projector in mask and removes them from
// the alive set. Their outputs are abandoned.
func (pr *pruner) kill(mask uint64, err error) {
	mask &= pr.alive
	for mk := mask; mk != 0; mk &= mk - 1 {
		pr.per[bits.TrailingZeros64(mk)].err = err
	}
	pr.alive &^= mask
	pr.open &^= mask
}

// closeOpen commits the provisional start-tag '>'s of the projectors in
// mask: the synthesized ones are written, the ones riding a run stay.
func (pr *pruner) closeOpen(mask uint64) {
	if pend := pr.open & mask; pend != 0 {
		pr.open &^= pend
		pr.litStringTo(pend&^pr.openRaw, ">")
	}
}

func (pr *pruner) run() error {
	s := pr.s
	if !pr.begun {
		pr.begun = true
		if pr.mode != modeFragment {
			if err := s.checkEncoding(); err != nil {
				return err
			}
		}
	}
	for pr.alive != 0 {
		if pr.sp != nil && pr.sp.at(s.pos) {
			if err := pr.applySplice(); err != nil {
				return err
			}
			continue
		}
		s.setMark()
		b, ok := s.getc()
		if !ok {
			if !s.atEOF() {
				return s.rerr
			}
			break
		}
		if b != '<' {
			s.ungetc()
			if err := pr.chunk(false); err != nil {
				return err
			}
			continue
		}
		kind, err := s.markup()
		if err != nil {
			return err
		}
		switch kind {
		case markupStart:
			err = pr.startTag()
		case markupEnd:
			err = pr.endTag()
		case markupCDATA:
			err = pr.chunk(true)
		}
		if err != nil {
			return err
		}
	}
	switch {
	case pr.alive == 0:
		// Every projector has already failed the way it would have alone;
		// the rest of the input is irrelevant.
		return nil
	case pr.mode == modePipe:
		// End of a non-final pipelined window. The indexer guarantees the
		// window ends exactly after a complete construct, so the loop
		// paused at a token boundary; everything else (pending text run,
		// open '>', element stack) continues into the next window.
		return nil
	case pr.mode == modeFragment:
		// The cut rule guarantees the byte after this range is an element
		// tag, where the pending text run would be flushed.
		pr.flushText()
	case !pr.sawRoot:
		return fmt.Errorf("no root element in input")
	}
	if len(pr.stack) != pr.ctxBase {
		top := pr.stack[len(pr.stack)-1]
		return fmt.Errorf("unterminated element %s", pr.p.Syms.Info(top.sym).Name)
	}
	return nil
}

// chunk reads one character-data chunk (plain text from the mark, or a
// CDATA section body) and folds it into the current logical text run,
// mirroring the decoder path: whitespace-only chunks are dropped, others
// coalesce until the next element tag. A verbatim chunk whose run has no
// earlier decoded bytes pending is emitted at once as a span of the
// scanner's buffer for the projectors keeping this element's text — its
// raw bytes equal the escaped output — instead of joining the run
// buffer, and one plainChunk took whole is not copied anywhere.
func (pr *pruner) chunk(cdata bool) error {
	s := pr.s
	kept := len(pr.textBuf)
	// The chunk is either a view of the input, in no buffer yet, or
	// decoded behind the run's kept bytes in out.
	var chunk, out []byte
	var info textInfo
	plain := false
	if !cdata {
		chunk, info, plain = s.plainChunk(-1)
	}
	if !plain {
		var err error
		if out, info, err = s.text(pr.textBuf, -1, cdata); err != nil {
			return err
		}
		pr.textBuf = out[:kept]
	}
	if len(pr.stack) == 0 || info.ws {
		// Text outside the root is tokenized and validated but ignored
		// by the pruner, exactly like the decoder path.
		return nil
	}
	pr.runPending = true
	top := &pr.stack[len(pr.stack)-1]
	keep := top.live & pr.alive & pr.p.KeepText(top.sym)
	switch {
	case keep == 0:
		// No surviving projector keeps this element's text: the run only
		// needs its counters and placement validation, not its bytes.
		// (Masks shrink monotonically, so keep is still 0 at flush.)
	case info.verbatim && !cdata && kept == 0:
		// The raw bytes are exactly the canonical output (a CDATA body
		// never is: it is re-escaped) and nothing earlier in this run is
		// pending in the buffer, which a later flush would reorder behind
		// these bytes.
		pr.closeOpen(keep)
		pr.rawTo(keep, s.mark, s.pos)
	case plain:
		pr.textBuf = append(pr.textBuf, chunk...)
	default:
		pr.textBuf = out
	}
	return nil
}

// flushText ends the current logical text run, if there is one: counts
// it (globally and per dead-region projector), validates its placement
// for the live projectors, and emits the escaped remainder to the
// keepers.
func (pr *pruner) flushText() {
	if pr.runPending {
		pr.endTextRun()
	}
}

func (pr *pruner) endTextRun() {
	pr.runPending = false
	pr.st.TextIn++
	top := &pr.stack[len(pr.stack)-1]
	for mk := pr.alive &^ top.live; mk != 0; mk &= mk - 1 {
		pr.per[bits.TrailingZeros64(mk)].st.TextSkipped++
	}
	live := top.live & pr.alive
	if pr.opts.Validate && live != 0 {
		if pr.mode == modeFragment && len(pr.stack) == pr.ctxBase {
			// The context element's incoming DFA state is unknown here;
			// record the event for the spine to replay at the splice.
			pr.events = append(pr.events, eventText)
		} else if next := top.aut.NextText(top.state); next < 0 {
			pr.kill(live, fmt.Errorf("text content not allowed in %s", pr.p.Syms.Info(top.sym).Name))
		} else {
			top.state = next
		}
	}
	if keep := live & pr.alive & pr.p.KeepText(top.sym); keep != 0 {
		pr.closeOpen(keep)
		if len(pr.textBuf) > 0 {
			pr.attrBuf = appendEscapedText(pr.attrBuf[:0], pr.textBuf)
			pr.litTo(keep, pr.attrBuf)
		}
		for mk := keep; mk != 0; mk &= mk - 1 {
			pr.per[bits.TrailingZeros64(mk)].st.TextOut++
		}
	}
	pr.textBuf = pr.textBuf[:0]
}

func (pr *pruner) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if p, ok := pr.prefixes[string(b)]; ok {
		return p
	}
	if pr.prefixes == nil {
		pr.prefixes = make(map[string]string)
	}
	p := string(b)
	pr.prefixes[p] = p
	return p
}

// startTag handles a start (or empty-element) tag; the scanner mark is
// at the '<' and the '<' is consumed.
func (pr *pruner) startTag() error {
	s := pr.s
	nameRel := s.pos - s.mark
	name, prefixB, local, err := s.qname("element name after <")
	if err != nil {
		return err
	}
	nameEndRel := s.pos - s.mark
	pr.flushText()
	pr.st.ElementsIn++
	pr.sawRoot = true
	// P: projectors for which this element sits in an emitting region.
	// The rest are inside a subtree they would, alone, consume with the
	// skip scan — no symbol lookup, no validation, and this element
	// counts as skipped for them. (A discard root is counted skipped only
	// for projectors it is *inside* a skipped region of, not for the ones
	// discarding it right here.)
	P := pr.alive
	if len(pr.stack) > 0 {
		P &= pr.stack[len(pr.stack)-1].live
	}
	for mk := pr.alive &^ P; mk != 0; mk &= mk - 1 {
		pr.per[bits.TrailingZeros64(mk)].st.ElementsSkipped++
	}
	var info *dtd.SymInfo
	var K uint64
	sym, found := pr.p.Syms.Lookup(local)
	if !found {
		pr.kill(P, fmt.Errorf("element %q not declared in DTD", local))
	} else {
		info = pr.p.Syms.Info(sym)
		if pr.opts.Validate && P != 0 {
			var verr error
			if len(pr.stack) == 0 {
				if info.Name != pr.d.Root {
					verr = fmt.Errorf("root element is %s, DTD requires %s", info.Name, pr.d.Root)
				}
			} else if pr.mode == modeFragment && len(pr.stack) == pr.ctxBase {
				// A child of the fragment's context element: its transition in
				// the context DFA is replayed by the spine at the splice point.
				pr.events = append(pr.events, sym)
			} else {
				// The parent's dense automaton takes the child transition
				// with two array loads — no name hashing on the hot path.
				top := &pr.stack[len(pr.stack)-1]
				if next := top.aut.Next(top.state, sym); next < 0 {
					verr = fmt.Errorf("element %s not allowed here in content of %s",
						info.Name, pr.p.Syms.Info(top.sym).Name)
				} else {
					top.state = next
				}
			}
			if verr != nil {
				pr.kill(P, verr)
			}
		}
		K = P & pr.alive & pr.p.KeepElem(sym)
	}

	if K == 0 {
		// Dead for every surviving projector: one skip pass over the tag
		// and subtree. The root's end-tag name must still match, so copy
		// the full name before attribute spans invalidate it.
		if pr.alive == 0 {
			return nil
		}
		pr.skipNames.push(name)
		empty, err := pr.skipTag()
		if err != nil {
			return err
		}
		if !empty {
			return pr.skipAll()
		}
		pr.skipNames.pop()
		return nil
	}

	prefix := pr.intern(prefixB)
	pr.closeOpen(K)

	// Lazy tag rendering, masked: canonMask holds the keepers whose
	// rendering so far is exactly the raw span from the mark, so nothing
	// is materialised for them — the bytes are emitted straight from the
	// scanner's buffer. At a projector's first deviation it is demoted:
	// the still-canonical head of the span is copied into its tag buffer
	// and kept attributes append canonically from there. The
	// per-attribute parse runs once; only the keep decisions differ
	// across projectors.
	canonMask := K
	if len(prefixB) != 0 {
		// The prefix is dropped in canonical output, so no raw span was
		// ever equal to any keeper's rendering.
		canonMask = 0
		for mk := K; mk != 0; mk &= mk - 1 {
			pp := &pr.per[bits.TrailingZeros64(mk)]
			pp.tagBuf = append(append(pp.tagBuf[:0], '<'), info.Tag...)
		}
	}
	demote := func(mask uint64, boundaryRel int) {
		for mk := mask; mk != 0; mk &= mk - 1 {
			pp := &pr.per[bits.TrailingZeros64(mk)]
			pp.tagBuf = append(pp.tagBuf[:0], s.buf[s.mark:s.mark+boundaryRel]...)
		}
		canonMask &^= mask
	}

	decl := pr.p.Attrs(sym)
	if pr.opts.Validate {
		if cap(pr.seen) < len(decl) {
			pr.seen = make([]bool, len(decl))
		}
		pr.seen = pr.seen[:len(decl)]
		for i := range pr.seen {
			pr.seen[i] = false
		}
	}

	empty := false
	for {
		preSpace := s.pos - s.mark
		s.space()
		spaceLen := (s.pos - s.mark) - preSpace
		b, ok := s.getc()
		if !ok {
			return s.readErr()
		}
		if b == '/' || b == '>' {
			if spaceLen != 0 && canonMask != 0 {
				demote(canonMask, preSpace)
			}
			if b == '>' {
				break
			}
			b2, ok := s.getc()
			if !ok {
				return s.readErr()
			}
			if b2 != '>' {
				return errSyntax("expected /> in element")
			}
			empty = true
			break
		}
		s.ungetc()
		// attrCanon tracks whether this attribute's raw bytes (from
		// preSpace) are already its canonical rendering — a projector-
		// independent property of the input.
		aprefix, alocal, val, attrCanon, err := s.attr(pr.attrVal[:0])
		pr.attrVal = val
		if err != nil {
			return err
		}
		if spaceLen != 1 || s.buf[s.mark+preSpace] != ' ' {
			attrCanon = false
		}
		api := -1
		for i := range decl {
			if string(alocal) == decl[i].Attr {
				api = i
				break
			}
		}
		if pr.opts.Validate && api >= 0 {
			pr.seen[api] = true
		}
		if isXMLNSAttr(aprefix, alocal) {
			if canonMask != 0 {
				demote(canonMask, preSpace)
			}
			continue
		}
		if pr.opts.Validate {
			// Only the projectors keeping this element validate its
			// attributes — a discarding one skips past them.
			if vk := K & pr.alive; vk != 0 {
				if api < 0 {
					pr.kill(vk, fmt.Errorf("undeclared attribute %q on %s", alocal, info.Tag))
				} else if ad := decl[api].Def; len(ad.Enum) > 0 && !inEnum(ad.Enum, pr.attrVal) {
					pr.kill(vk, fmt.Errorf("attribute %q on %s has value %q outside its enumeration", alocal, info.Tag, pr.attrVal))
				} else if ad.Fixed != "" && string(pr.attrVal) != ad.Fixed {
					pr.kill(vk, fmt.Errorf("attribute %q on %s must have fixed value %q", alocal, info.Tag, ad.Fixed))
				}
			}
		}
		var keepMask uint64
		if api >= 0 {
			keepMask = decl[api].Keep
		} else {
			keepMask = pr.p.KeepExtraAttr(sym, alocal)
		}
		keepMask &= K
		// Keepers dropping this attribute can no longer ride the raw span,
		// and nobody can when its raw bytes are not its canonical form.
		dm := canonMask &^ keepMask
		if !attrCanon {
			dm = canonMask
		}
		if dm != 0 {
			demote(dm, preSpace)
		}
		// Still-canonical keepers carry the attribute inside their raw
		// span; the demoted ones get its canonical rendering appended
		// (built once, shared).
		if appendMask := keepMask &^ canonMask; appendMask != 0 {
			pr.attrBuf = append(append(pr.attrBuf[:0], ' '), alocal...)
			pr.attrBuf = append(pr.attrBuf, '=', '"')
			pr.attrBuf = appendEscapedAttr(pr.attrBuf, pr.attrVal)
			pr.attrBuf = append(pr.attrBuf, '"')
			for mk := appendMask; mk != 0; mk &= mk - 1 {
				pp := &pr.per[bits.TrailingZeros64(mk)]
				pp.tagBuf = append(pp.tagBuf, pr.attrBuf...)
			}
		}
	}

	if pr.opts.Validate && K&pr.alive != 0 {
		for i := range decl {
			if decl[i].Def.Required && !pr.seen[i] {
				pr.kill(K, fmt.Errorf("missing required attribute %q on %s", decl[i].Def.Attr, info.Tag))
				break
			}
		}
	}

	K &= pr.alive
	if K == 0 {
		// Every keeper died mid-tag. The tag is already consumed; the
		// content, if any, is dead for whoever is left.
		if pr.alive == 0 || empty {
			return nil
		}
		pr.skipNames.push(s.buf[s.mark+nameRel : s.mark+nameEndRel])
		return pr.skipAll()
	}

	// Only a validating prune steps the automaton, and only then do the
	// dense tables exist (prep); state 0 is every DenseDFA's start state.
	var aut *dtd.DenseDFA
	if pr.opts.Validate {
		aut = info.Dense
	}
	pr.stack = append(pr.stack, frame{sym: sym, prefix: prefix, live: K, aut: aut})
	depth := len(pr.stack)
	// A projector in K is, by the live-set prefix property, live in
	// every frame below — so this shared depth is its own depth.
	for mk := K; mk != 0; mk &= mk - 1 {
		if pp := &pr.per[bits.TrailingZeros64(mk)]; depth > pp.st.MaxDepth {
			pp.st.MaxDepth = depth
		}
	}

	if empty {
		// The decoder synthesizes the end element immediately.
		if pr.opts.Validate && !aut.Accepting(aut.Start()) {
			pr.kill(K, fmt.Errorf("content of %s is incomplete (model %s)", info.Name, info.Def.Content))
			K &= pr.alive
		}
		pr.stack = pr.stack[:depth-1]
		for mk := K; mk != 0; mk &= mk - 1 {
			pr.per[bits.TrailingZeros64(mk)].st.ElementsOut++
		}
	} else {
		// The trailing '>' stays provisional per projector (closeOpen) so
		// the element can still self-close in that projector's output.
		pr.open |= K
		pr.openRaw = pr.openRaw&^K | canonMask&K
	}
	pr.rawTo(canonMask&K, s.mark, s.pos)
	for mk := K &^ canonMask; mk != 0; mk &= mk - 1 {
		bit := mk & -mk
		pr.litTo(bit, pr.per[bits.TrailingZeros64(bit)].tagBuf)
		if empty {
			pr.litStringTo(bit, "/>")
		}
	}
	return nil
}

// endTag handles an end tag; "</" is consumed and the mark is at '<'.
func (pr *pruner) endTag() error {
	s := pr.s
	// canon: the input spells the canonical "</tag>". When the bytes after
	// "</" are the open element's tag and '>', that comparison is the whole
	// check: the name was validated where it opened.
	canon := false
	if len(pr.stack) > pr.ctxBase {
		top := &pr.stack[len(pr.stack)-1]
		canon = top.prefix == "" && closes(s, pr.p.Syms.Info(top.sym).Tag)
	}
	if canon {
		pr.flushText()
	} else {
		name, prefixB, local, spaced, err := s.endName()
		if err != nil {
			return err
		}
		pr.flushText()
		if len(pr.stack) == pr.ctxBase {
			return fmt.Errorf("unbalanced end element %s", local)
		}
		top := pr.stack[len(pr.stack)-1]
		if tag := pr.p.Syms.Info(top.sym).Tag; string(local) != tag || string(prefixB) != top.prefix {
			// The skip scan enforces end-tag matching too, so every projector
			// fails here: a whole-pass error, like the other syntax errors.
			return fmt.Errorf("element <%s> closed by </%s>", tag, name)
		}
		canon = len(prefixB) == 0 && !spaced
	}
	top := pr.stack[len(pr.stack)-1]
	info := pr.p.Syms.Info(top.sym)
	if live := top.live & pr.alive; live != 0 && pr.opts.Validate && !top.aut.Accepting(top.state) {
		pr.kill(live, fmt.Errorf("content of %s is incomplete (model %s)", info.Name, info.Def.Content))
	}
	pr.stack = pr.stack[:len(pr.stack)-1]
	live := top.live & pr.alive
	for mk := live; mk != 0; mk &= mk - 1 {
		pr.per[bits.TrailingZeros64(mk)].st.ElementsOut++
	}
	op := pr.open & live
	pr.open &^= op
	for mk := op & pr.openRaw; mk != 0; mk &= mk - 1 {
		pr.per[bits.TrailingZeros64(mk)].runEnd-- // take the '>' back
	}
	pr.litStringTo(op, "/>")
	if closed := live &^ op; closed != 0 {
		if canon {
			pr.rawTo(closed, s.mark, s.pos) // raw "</tag>" is canonical
		} else {
			pr.attrBuf = append(append(pr.attrBuf[:0], '<', '/'), info.Tag...)
			pr.attrBuf = append(pr.attrBuf, '>')
			pr.litTo(closed, pr.attrBuf)
		}
	}
	return nil
}

func inEnum(enum []string, v []byte) bool {
	for _, e := range enum {
		if string(v) == e {
			return true
		}
	}
	return false
}

// appendEscapedText appends text content with the pruner's escaping
// (the tree serialiser's: &, < and > become entities).
func appendEscapedText(dst, b []byte) []byte {
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		default:
			dst = append(dst, b[i])
		}
	}
	return dst
}

// appendEscapedAttr appends an attribute value with the pruner's
// escaping (the tree serialiser's: &, <, > and " become entities).
func appendEscapedAttr(dst, b []byte) []byte {
	for i := 0; i < len(b); i++ {
		switch b[i] {
		case '&':
			dst = append(dst, "&amp;"...)
		case '<':
			dst = append(dst, "&lt;"...)
		case '>':
			dst = append(dst, "&gt;"...)
		case '"':
			dst = append(dst, "&quot;"...)
		default:
			dst = append(dst, b[i])
		}
	}
	return dst
}
