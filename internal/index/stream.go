package index

// Streaming structural indexing for the pipelined pruner. The batch
// Build API requires the whole document; StreamIndexer produces the
// same entries window-at-a-time, carrying element depth across window
// boundaries and telling the caller how many bytes of each window were
// covered by complete constructs — everything after that (a trailing
// text run, an incomplete construct) must be re-presented at the start
// of the next window, so a presented window always ends exactly at the
// end of a complete '<'-construct and no text run or construct ever
// straddles one.
//
// Classification is the same speculative, context-free routine Build
// uses (Classify): a construct is complete (OK), needs bytes beyond the
// window (NeedMore — retry when more input arrives), or is malformed in
// a way the serial scanner is guaranteed to error at within the bytes
// already seen (Malformed). Only the malformed case kills a window: the
// caller stops delegating and lets the spine pruner reproduce the exact
// serial error.

import (
	"bytes"
	"fmt"
)

// StreamIndexer builds a structural index incrementally, one window at
// a time. Windows must be presented in document order, each beginning
// with the bytes the previous Window call did not consume. The zero
// value is ready to use after setting Lookup and MaxTokenSize.
type StreamIndexer struct {
	// MaxTokenSize bounds a single construct or inter-construct text
	// gap, mirroring the serial scanner's sliding-buffer cap. 0 means
	// no bound.
	MaxTokenSize int
	// Lookup resolves a tag's local name to its DTD symbol; nil leaves
	// every Sym at -1.
	Lookup func(local []byte) (int32, bool)

	depth int32 // open-element depth carried across windows
	dead  bool  // a malformed construct was seen; no further indexing
	ents  []Entry
}

// Window is the index of one presented window.
type Window struct {
	// Entries are the complete constructs found, in document order,
	// with absolute depths (the same Depth convention as Build). The
	// slice is reused by the next Window call.
	Entries []Entry
	// Consumed is the end offset of the last complete construct: the
	// caller must carry data[Consumed:] — the trailing text run plus
	// any incomplete construct — into the next window.
	Consumed int
	// Dead reports a construct the serial scanner is guaranteed to
	// error at within this window (a malformed start tag, or an end
	// tag with no element open). Entries stops before it; the caller
	// must stop delegating and let the spine reproduce the error.
	Dead bool
	// Err is a MaxTokenSize violation (wrapped ErrTokenTooLong): a
	// single construct or text gap exceeded the cap.
	Err error
}

// Depth returns the current open-element depth (the number of Start
// entries seen without their End), i.e. the depth at the start of the
// next window.
func (si *StreamIndexer) Depth() int { return int(si.depth) }

// Reset returns the indexer to its initial state, keeping buffers.
func (si *StreamIndexer) Reset() {
	si.depth = 0
	si.dead = false
	si.ents = si.ents[:0]
}

// Window indexes one window of document content. data must start with
// the bytes the previous call did not consume (data[Consumed:]).
func (si *StreamIndexer) Window(data []byte) Window {
	si.ents = si.ents[:0]
	w := Window{}
	if si.dead {
		w.Dead = true
		w.Entries = si.ents
		return w
	}
	maxTok := si.MaxTokenSize
	pos := 0
	runStart := 0 // end of the last accepted construct in this window
	for pos < len(data) {
		j := bytes.IndexByte(data[pos:], '<')
		if j < 0 {
			break
		}
		j += pos
		e, st := entryAt(data, j)
		if st == NeedMore {
			break
		}
		if st == Malformed {
			si.dead = true
			w.Dead = true
			break
		}
		if maxTok > 0 {
			// The carry discipline guarantees the text run since the last
			// construct starts inside this window, so these per-window
			// checks are the cumulative ones stitch applies to the whole
			// document.
			if gap := e.Off - runStart; gap > maxTok {
				w.Err = fmt.Errorf("%w (%d-byte text run)", ErrTokenTooLong, gap)
				break
			}
			if ln := e.End - e.Off; ln > maxTok {
				w.Err = fmt.Errorf("%w (%d-byte construct)", ErrTokenTooLong, ln)
				break
			}
		}
		e.resolveSym(data, si.Lookup)
		e.Depth = si.depth
		switch e.Kind {
		case Start:
			si.depth++
		case StartEmpty:
			// Depth unchanged. Unlike Build, depth 0 is fine here: the
			// serial pruner accepts empty-element tags at document level.
		case End:
			if si.depth == 0 {
				// No element open: the spine errors at this tag
				// ("unbalanced end element"), exactly like serial.
				si.dead = true
				w.Dead = true
			} else {
				si.depth--
				e.Depth = si.depth
			}
		}
		if w.Dead {
			break
		}
		si.ents = append(si.ents, e)
		pos = e.End
		runStart = e.End
	}
	w.Entries = si.ents
	w.Consumed = runStart
	return w
}
