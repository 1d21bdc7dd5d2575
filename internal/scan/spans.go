package scan

// Span-gather output. A projected document is mostly a subset of the
// input bytes (the paper's core observation), so when the input is
// fully in memory the pruner does not need to copy anything: output is
// recorded as a SpanList — an ordered gather list of {off, len} ranges
// over the input plus a small escape buffer holding the few bytes the
// pruner synthesizes (re-rendered tags, escaped text, "/>") — and
// rendered only when it is written out, one Write per span. The emitter
// interface below is the single seam: the pruner writes through it, and
// the target is either the classic bufio.Writer (streaming path,
// unchanged) or a SpanList (in-memory ResetBytes path, zero output
// copies).

import (
	"bufio"
	"io"
	"sync"
)

// emitter is the pruner's output target. raw emits a verbatim span
// buf[off:end] of the scanner's buffer (the pruner has already merged
// adjacent ones into runs); in ResetBytes mode the buffer
// aliases the whole input and never slides, so off/end are absolute
// input offsets — the invariant that makes gather output sound. The
// lit* methods emit synthesized bytes, which the emitter must copy
// before returning (callers reuse the scratch). splice folds a
// fragment's pre-computed gather list in at the current point.
//
// Emitters never fail: bufio defers write errors to Flush, and a
// gather list cannot fail at all.
type emitter interface {
	raw(buf []byte, off, end int)
	lit(p []byte)
	litString(s string)
	splice(fr *SpanList)
}

// streamEmitter is the classic streaming target: every span and
// synthesized byte is copied into the bufio.Writer.
type streamEmitter struct{ bw *bufio.Writer }

func (e *streamEmitter) raw(buf []byte, off, end int) { e.bw.Write(buf[off:end]) }
func (e *streamEmitter) lit(p []byte)                 { e.bw.Write(p) }
func (e *streamEmitter) litString(s string)           { e.bw.WriteString(s) }

// splice copies a fragment's segments out in order — one copy per
// fragment, where the old per-fragment bytes.Buffer path paid two
// (fragment buffer, then buffer into the spine writer).
func (e *streamEmitter) splice(fr *SpanList) {
	for _, sp := range fr.spans {
		e.bw.Write(fr.segment(sp))
	}
}

// nopEmitter discards everything. Skip fragments never produce output;
// wiring them to nopEmitter makes that invariant crash-proof (the old
// arrangement handed them a pooled bufio.Writer wrapping a nil writer,
// which any stray write would eventually have flushed into a panic).
type nopEmitter struct{}

func (nopEmitter) raw([]byte, int, int) {}
func (nopEmitter) lit([]byte)           {}
func (nopEmitter) litString(string)     {}
func (nopEmitter) splice(*SpanList)     {}

// Span is one gather segment. Off >= 0 addresses the input; Off < 0
// encodes an escape-buffer segment starting at ^Off. The encoding is
// internal — renderers go through SpanList.segment.
type Span struct {
	Off, Len int
}

// SpanList is the span-gather output of one prune over in-memory
// input: rendered output equals the concatenation of its spans, most
// of which point straight into the input. It implements the pruner's
// emitter interface, and io.WriterTo.
//
// A SpanList is single-goroutine state; Reset it before reuse.
type SpanList struct {
	input []byte
	spans []Span
	esc   []byte // synthesized bytes referenced by Off<0 spans

	total    int64 // rendered output size
	rawTotal int64 // bytes referenced in place (not copied)
}

// Reset points the list at a new input and drops all recorded output;
// span and escape capacity is retained.
func (sl *SpanList) Reset(input []byte) {
	sl.input = input
	sl.spans = sl.spans[:0]
	sl.esc = sl.esc[:0]
	sl.total, sl.rawTotal = 0, 0
}

// Clear drops every reference (input, spans, escape bytes) so a pooled
// list never pins caller buffers.
func (sl *SpanList) Clear() {
	sl.input = nil
	sl.spans = sl.spans[:0]
	sl.esc = sl.esc[:0]
	sl.total, sl.rawTotal = 0, 0
}

// Len is the rendered output size in bytes.
func (sl *SpanList) Len() int64 { return sl.total }

// RawBytes counts the output bytes served in place from the input —
// the bytes a copying emitter would have memcpy'd and this one did
// not. Len()-RawBytes() is the synthesized remainder.
func (sl *SpanList) RawBytes() int64 { return sl.rawTotal }

// Segments is the number of gather segments: WriteTo's Write calls.
func (sl *SpanList) Segments() int { return len(sl.spans) }

func (sl *SpanList) segment(sp Span) []byte {
	if sp.Off >= 0 {
		return sl.input[sp.Off : sp.Off+sp.Len]
	}
	off := ^sp.Off
	return sl.esc[off : off+sp.Len]
}

// WriteTo writes the segments to w in order, one Write each, stopping at
// the first error. Segments are small — a selective prune of XMark
// averages 14 bytes — so hand it a buffered writer (net/http's response
// writer is one; an *os.File or a raw connection is a system call per
// segment). It is not a writev: no shipped caller holds the raw TCP
// connection that net.Buffers needs for one.
func (sl *SpanList) WriteTo(w io.Writer) (n int64, err error) {
	for _, sp := range sl.spans {
		m, err := w.Write(sl.segment(sp))
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// AppendTo appends the rendered output to dst.
func (sl *SpanList) AppendTo(dst []byte) []byte {
	for _, sp := range sl.spans {
		dst = append(dst, sl.segment(sp)...)
	}
	return dst
}

// Bytes materialises the rendered output in a fresh slice (tests,
// small results).
func (sl *SpanList) Bytes() []byte { return sl.AppendTo(make([]byte, 0, sl.total)) }

// raw records input[off:end], merging with an adjacent preceding input
// span: a run the pruner had to hand over early and then continued, or
// a fragment list spliced in right behind the spine's last span.
func (sl *SpanList) raw(_ []byte, off, end int) {
	n := end - off
	if n <= 0 {
		return
	}
	sl.total += int64(n)
	sl.rawTotal += int64(n)
	if k := len(sl.spans); k > 0 {
		if last := &sl.spans[k-1]; last.Off >= 0 && last.Off+last.Len == off {
			last.Len += n
			return
		}
	}
	sl.spans = append(sl.spans, Span{Off: off, Len: n})
}

func (sl *SpanList) lit(p []byte) {
	if len(p) == 0 {
		return
	}
	off := len(sl.esc)
	sl.esc = append(sl.esc, p...)
	sl.escSpan(off, len(p))
}

func (sl *SpanList) litString(s string) {
	if len(s) == 0 {
		return
	}
	off := len(sl.esc)
	sl.esc = append(sl.esc, s...)
	sl.escSpan(off, len(s))
}

// escSpan records escape-buffer range [off, off+n), merging with a
// preceding escape span that ends at off (consecutive lit appends
// always do).
func (sl *SpanList) escSpan(off, n int) {
	sl.total += int64(n)
	if k := len(sl.spans); k > 0 {
		if last := &sl.spans[k-1]; last.Off < 0 && ^last.Off+last.Len == off {
			last.Len += n
			return
		}
	}
	sl.spans = append(sl.spans, Span{Off: ^off, Len: n})
}

// splice concatenates a fragment's gather list: input spans are shared
// verbatim — fragment workers scan with absolute offsets
// (ResetBytesAt) over the same backing input, so the parallel stitch
// is list concatenation with no per-fragment memcpy. Only escape bytes
// are copied and rebased, and those are the few synthesized bytes.
func (sl *SpanList) splice(fr *SpanList) {
	for _, sp := range fr.spans {
		if sp.Off >= 0 {
			sl.raw(nil, sp.Off, sp.Off+sp.Len)
		} else {
			off := len(sl.esc)
			o := ^sp.Off
			sl.esc = append(sl.esc, fr.esc[o:o+sp.Len]...)
			sl.escSpan(off, sp.Len)
		}
	}
}

// spanListPool recycles fragment gather lists across parallel prunes.
var spanListPool = sync.Pool{New: func() any { return new(SpanList) }}

func getSpanList(input []byte) *SpanList {
	sl := spanListPool.Get().(*SpanList)
	sl.Reset(input)
	return sl
}

// putSpanList clears the list — dropping its input reference so the
// pool never pins caller data — and recycles it.
func putSpanList(sl *SpanList) {
	sl.Clear()
	spanListPool.Put(sl)
}
