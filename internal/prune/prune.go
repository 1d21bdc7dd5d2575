// Package prune implements type-driven projection (Def. 2.7): given a
// document valid w.r.t. a DTD and a type projector π, it erases every
// node whose name under the interpretation ℑ is not in π.
//
// Two pruners are provided. Tree projects an in-memory document.
// Stream is the paper's §6 pruner: a single bufferless one-pass traversal
// of the token stream with constant memory, optionally fused with
// validation, suitable for running at parse/load time. Both decide on
// one table, π compiled against the grammar's symbols (dtd.Projection),
// and every streaming prune runs on the byte-level scanner
// (internal/scan). The encoding/xml pruner is this package's test oracle
// (oracle_test.go) and no part of the build.
package prune

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"

	"xmlproj/internal/dtd"
	"xmlproj/internal/scan"
	"xmlproj/internal/tree"
)

// Tree computes the π-projection t∖π of a document (Def. 2.7), π given
// as the compiled table the streaming pruner reads (bit 0 of each mask:
// a single projector's table), so the two pruners cannot disagree about
// what π keeps. ℑ is a symbol lookup: an element's name is the symbol of
// its tag, a text node's the text column of its parent; an element the
// grammar does not define is in no π.
//
// The returned document shares nothing with the input; node IDs are
// preserved so that query results on the original and the pruned document
// can be compared by identity (the form of Thm. 4.5).
//
// Attributes are kept when their derived name is in π; if the owning
// element is kept but none of its attribute names are in π, the element
// keeps no attributes.
func Tree(doc *tree.Document, p *dtd.Projection) *tree.Document {
	if doc.Root == nil {
		return &tree.Document{}
	}
	sym, ok := p.Syms.LookupTag(doc.Root.Tag)
	if !ok || p.KeepElem(sym)&1 == 0 {
		return &tree.Document{}
	}
	return &tree.Document{Root: pruneNode(p, doc.Root, sym, nil)}
}

func pruneNode(p *dtd.Projection, n *tree.Node, sym int32, parent *tree.Node) *tree.Node {
	m := &tree.Node{ID: n.ID, Kind: n.Kind, Tag: n.Tag, Data: n.Data, Parent: parent}
	decl := p.Attrs(sym)
	for _, a := range n.Attrs {
		if keepAttr(p, sym, decl, a.Name) {
			m.Attrs = append(m.Attrs, a)
		}
	}
	keepText := p.KeepText(sym)&1 != 0
	for _, c := range n.Children {
		var child *tree.Node
		if c.Kind == tree.Text {
			if !keepText {
				continue
			}
			child = &tree.Node{ID: c.ID, Kind: c.Kind, Tag: c.Tag, Data: c.Data, Parent: m}
		} else {
			csym, ok := p.Syms.LookupTag(c.Tag)
			if !ok || p.KeepElem(csym)&1 == 0 {
				continue
			}
			child = pruneNode(p, c, csym, m)
		}
		child.Index = len(m.Children)
		m.Children = append(m.Children, child)
	}
	return m
}

// keepAttr is the scanner's attribute decision: the declared attribute's
// Keep bit, or π's side table for one the DTD does not declare there.
func keepAttr(p *dtd.Projection, sym int32, decl []dtd.AttrProj, attr string) bool {
	for i := range decl {
		if decl[i].Attr == attr {
			return decl[i].Keep&1 != 0
		}
	}
	return p.KeepExtraAttr(sym, []byte(attr))&1 != 0
}

// Stats reports what a streaming prune did: elements and logical text
// nodes read, written and skipped, bytes written, deepest stack.
type Stats = scan.Stats

// Engine selects the tokenizer behind Stream.
type Engine int

const (
	// EngineAuto picks among the scanner-based engines by input size,
	// worker budget and Validate (see chooseEngine). This is the default. Input must
	// be UTF-8: UTF-16/32 fails with scan.ErrNotUTF8 on every engine.
	EngineAuto Engine = iota
	// EngineScanner forces the byte-level scanner (internal/scan).
	EngineScanner
	// EngineDecoder names the encoding/xml pruner, which is the tests'
	// oracle and not in the build: the value keeps its place and its
	// name, and forcing it is run's "no route" error.
	EngineDecoder
	// EngineParallel forces the two-stage parallel pruner: a parallel
	// structural index over byte chunks, concurrent fragment pruning,
	// and a sequential splice pass — byte-identical output and identical
	// verdicts to EngineScanner. The whole input is buffered in memory.
	// When EngineAuto selects it: see chooseEngine.
	EngineParallel
	// EnginePipelined forces the pipelined streaming parallel pruner:
	// reading, incremental structural indexing, concurrent fragment
	// pruning and in-order emission overlap in a bounded ring of window
	// buffers, so memory stays at ring × window bytes however large the
	// document — with byte-identical output and identical verdicts to
	// EngineScanner. When EngineAuto selects it: see chooseEngine.
	EnginePipelined
)

// String returns the engine's name as logged by servers and tools.
func (e Engine) String() string {
	switch e {
	case EngineScanner:
		return "scanner"
	case EngineDecoder:
		return "decoder"
	case EngineParallel:
		return "parallel"
	case EnginePipelined:
		return "pipelined"
	case EngineAuto:
		return "auto"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// ParallelDetail reports how an EngineParallel prune executed: per-stage
// wall times, resolved workers, delegated tasks, and whether the input
// fell back to the serial scanner.
type ParallelDetail = scan.ParallelDetail

// PipelineDetail reports how an EnginePipelined prune executed:
// per-stage times, windows streamed, and the peak window bytes resident
// (bounded by ring depth × window size).
type PipelineDetail = scan.PipelineDetail

// parallelMinBytes (resident input) and pipelineMinBytes (readers of
// known size; unknown sizes always qualify, there is nothing to buffer)
// are the sizes below which EngineAuto does not bother with a
// concurrent engine.
const parallelMinBytes, pipelineMinBytes = 4 << 20, 1 << 20

// concurrentMinWorkers is the worker budget below which EngineAuto stays
// on the serial scanner. The parallel and pipelined engines add a
// structural pass over every byte (0.5–0.6 of a scan when this was set:
// index.build_mb_s 518 vs scan.low_mb_s 270) and a serial plan, stitch
// and spine, so w workers take at best 1.55/w of the serial time: 0.78
// at w = 2, where a one-shot measured 3.4× slower once its cold index
// memory counted (cli_large, 335 vs 99 ms). 4 is the smallest budget a
// measurement shows winning (CI, runners with ≥ 4 CPUs: pipelined.mb_s ≥
// 1.2 × scan.reader_mb_s in one traced benchmark run, taken when every
// prune tokenised what it discarded, as a validating one still does).
const concurrentMinWorkers = 4

// chooseEngine is EngineAuto's one routing rule, for every entry point.
// resident: the input is in memory. workerBudget is ParallelWorkers:
// 0 means GOMAXPROCS, which also caps it. Without validate the serial
// scanner only balances what π discards, with the classifier the
// concurrent engines build their index with and at its speed
// (scan.reader_mb_s ≈ index.build_mb_s), so their structural pass buys
// nothing a measurement has shown — pipelined.mb_s is 0.35 of
// scan.reader_mb_s at w = 2, where it was 0.98 — and auto stays serial.
func chooseEngine(size int64, sizeKnown, resident bool, workerBudget int, validate bool) Engine {
	if procs := runtime.GOMAXPROCS(0); workerBudget <= 0 || workerBudget > procs {
		workerBudget = procs
	}
	switch {
	case !validate || workerBudget < concurrentMinWorkers:
		return EngineScanner
	case resident && size >= parallelMinBytes:
		return EngineParallel
	case !resident && (!sizeKnown || size >= pipelineMinBytes):
		return EnginePipelined
	}
	return EngineScanner
}

// StreamOptions configures a streaming prune.
type StreamOptions struct {
	// Validate checks content models, attribute declarations and the root
	// element while pruning (§6: "prune the document while validating it").
	// Validation is fused into the scanner's fast paths: kept input is
	// still emitted as verbatim spans, with every element and text symbol
	// walked through the dense content-model DFAs.
	//
	// It is also the switch between the two levels of checking a prune
	// offers. With it the whole document is checked for well-formedness,
	// the subtrees π discards token by token. Without it — the paper
	// assumes valid input (Thm. 4.5) — well-formedness is guaranteed where
	// π keeps and structural balance where it discards: in a discarded
	// subtree an unterminated construct, the end of input, a '<' inside a
	// tag, unbalanced tags and an end tag closing the subtree under
	// another name are still errors; a bad name, attribute syntax, an
	// undefined entity, an illegal character or invalid UTF-8, "]]>" in
	// text, "--" in a comment and a mismatched inner end-tag name are not
	// seen, and text in there is not counted (Stats.TextIn, TextSkipped).
	Validate bool
	// Engine selects the tokenizer; the zero value is EngineAuto.
	Engine Engine
	// MaxTokenSize bounds the scanner-path token buffer; a single token
	// larger than this fails with scan.ErrTokenTooLong. Zero means
	// scan.DefaultMaxTokenSize.
	MaxTokenSize int
	// Projection, when non-nil, is the compiled form of π to use on the
	// scanner path, letting batch callers compile π once per (DTD, π)
	// pair instead of once per document. It must have been compiled from
	// the same DTD and π passed to Stream.
	Projection *dtd.Projection
	// ParallelWorkers bounds the concurrency of EngineParallel and
	// EnginePipelined (0 means GOMAXPROCS).
	ParallelWorkers int
	// Detail, when non-nil, receives per-stage execution details of an
	// EngineParallel prune.
	Detail *ParallelDetail
	// Pipeline, when non-nil, receives per-stage execution details of an
	// EnginePipelined prune.
	Pipeline *PipelineDetail
	// Ctx, when non-nil, aborts the prune when the context is cancelled:
	// the source is checked before every read and Stream returns the
	// context error (wrapped), recognisable with errors.Is. Long prunes
	// driven by a server request can thus be cut off when the client
	// goes away or a deadline passes.
	Ctx context.Context
	// Chosen, when non-nil, receives the engine Stream resolved for this
	// input (never EngineAuto), so callers can log what actually ran.
	Chosen *Engine

	// The concurrent engines' granularity, zero meaning their defaults:
	// the parallel index's chunk size, the per-fragment target size (both
	// engines), and the pipelined engine's window size and windows in
	// flight (1 MiB, workers+2; peak input-side memory is their product).
	// No caller outside this package's tests has a reason to set them —
	// the tests do, to put fragment and window boundaries on every byte.
	parallelChunkSize  int
	parallelFragTarget int
	pipelineWindowSize int
	pipelineRingDepth  int
}

// Stream prunes the XML document read from src against π, writing the
// pruned document to dst in one pass. Subtrees rooted at pruned elements
// are skipped without buffering, so memory use is bounded by the document
// depth.
//
// By default the prune runs on the byte-level scanner (internal/scan):
// tags and text are tokenized as sub-slices of the read buffer, names
// resolve through the DTD's dense symbol table, subtrees outside π are
// skip-scanned without materialisation, and kept bytes that are already
// canonical are copied through verbatim — with or without validation,
// which rides along on the dense content-model DFAs. Output is
// byte-identical to the encoding/xml pruner's, the testing oracle
// (oracle_test.go). Input must be UTF-8 (scan.ErrNotUTF8).
//
// A src implementing BytesSource (an mmap'd file, a buffered request
// body) is never read: the prune scans the caller's bytes in place, as
// StreamBytes does.
func Stream(dst io.Writer, src io.Reader, d *dtd.DTD, pi dtd.NameSet, opts StreamOptions) (Stats, error) {
	return run(source{r: src}, sink{w: dst}, d, pi, opts)
}

// StreamBytes is Stream over input that is already fully in memory:
// the scanner aliases data instead of reading and buffering it, so the
// input side copies nothing, and EngineParallel skips the buffering
// pass entirely. Output and stats are byte-identical to Stream's; one
// documented exception: MaxTokenSize is not enforced on the in-memory
// scanner paths (the cap bounds the streaming scanner's buffer growth,
// which in-memory input does not have) — bound such inputs by size.
func StreamBytes(dst io.Writer, data []byte, d *dtd.DTD, pi dtd.NameSet, opts StreamOptions) (Stats, error) {
	return run(source{data: data}, sink{w: dst}, d, pi, opts)
}

// Gather is the span-gather result of StreamGather: the pruned output
// described as an ordered list of spans over the caller's input plus a
// small escape buffer of synthesized bytes. Nothing is copied until it
// is written out (io.WriterTo), and then once, into the writer: one
// Write per span, so the writer should buffer. The input slice must stay
// alive and unmodified until Close, which recycles the gather's state; a
// Gather must not be used after Close.
type Gather struct {
	sl     *scan.SpanList
	closed bool
}

var gatherPool = sync.Pool{New: func() any { return &Gather{sl: new(scan.SpanList)} }}

// WriteTo writes the rendered output to w, one Write per segment: hand
// it a buffered writer (scan.SpanList.WriteTo).
func (g *Gather) WriteTo(w io.Writer) (int64, error) { return g.sl.WriteTo(w) }

// Bytes materialises the rendered output in a fresh slice.
func (g *Gather) Bytes() []byte { return g.sl.Bytes() }

// AppendTo appends the rendered output to dst.
func (g *Gather) AppendTo(dst []byte) []byte { return g.sl.AppendTo(dst) }

// Len is the rendered output size in bytes.
func (g *Gather) Len() int64 { return g.sl.Len() }

// RawBytes counts the output bytes referenced in place from the input
// — bytes the prune never copied. Len()-RawBytes() is the synthesized
// remainder (re-rendered tags, escaped text).
func (g *Gather) RawBytes() int64 { return g.sl.RawBytes() }

// Segments is the number of gather segments, WriteTo's Write calls.
func (g *Gather) Segments() int { return g.sl.Segments() }

// Close drops the gather's input reference and recycles its state.
// Safe to call more than once.
func (g *Gather) Close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	g.sl.Clear()
	gatherPool.Put(g)
	return nil
}

// StreamGather prunes in-memory input into a span-gather result
// instead of a destination writer: output bytes that survive the
// projection are referenced in place, so nothing is copied until the
// result is written out. The rendered output is byte-identical to
// Stream's, and stats match it (BytesOut is the rendered size).
//
// Engine selection follows StreamBytes (see run for the two cells that
// differ). MaxTokenSize is not enforced on the in-memory scanner paths
// (see StreamBytes). On error no Gather is returned (partial output is
// discarded, unlike the streaming paths which have already written
// it). The caller must Close the returned Gather.
func StreamGather(data []byte, d *dtd.DTD, pi dtd.NameSet, opts StreamOptions) (*Gather, Stats, error) {
	g := gatherPool.Get().(*Gather)
	g.closed = false
	st, err := run(source{data: data}, sink{sl: g.sl}, d, pi, opts)
	if err != nil {
		g.Close()
		return nil, st, err
	}
	return g, st, nil
}

// source is where a prune's bytes come from: a reader, or (r == nil) a
// document already resident in memory.
type source struct {
	r    io.Reader
	data []byte
}

// sink is where they go: a writer, or (w == nil) a span list over the
// resident input.
type sink struct {
	w  io.Writer
	sl *scan.SpanList
}

// cell is one cell of run's routing table.
type cell struct {
	eng      Engine
	resident bool // the source is in memory
	spans    bool // the sink is a span list
}

const (
	fromReader, fromBytes = false, true
	toWriter, toSpans     = false, true
)

// run is the one route every streaming prune takes. It resolves the
// source (a reader that is a BytesSource is resident input), resolves
// the engine (chooseEngine, unless one is forced) and dispatches on
//
//	engine     source  sink    runs
//	scanner    reader  writer  scan.Prune
//	scanner    bytes   writer  scan.PruneBytes
//	scanner    bytes   spans   scan.PruneGather
//	parallel   bytes   writer  scan.PruneParallel
//	parallel   bytes   spans   scan.PruneParallelGather
//	parallel   reader  writer  → parallel, bytes: the batch pruner needs
//	                           resident input, so the reader is read whole
//	pipelined  reader  writer  scan.PrunePipelined
//	pipelined  bytes   writer  scan.PrunePipelined over a bytes.Reader
//	pipelined  bytes   spans   → parallel: spans cover the whole resident
//	                           input, so streaming it in windows buys nothing
//
// Only the scanner rows, parallel from bytes and pipelined from a reader
// are reachable through EngineAuto; the rest are forced. A span sink
// needs resident input, so no entry point builds reader × spans. Any
// other engine value has no row and fails with "no route": EngineDecoder
// is one, its pruner being the tests' oracle.
//
// It holds the only engine choice, the only projection compile, the only
// hand-back of stats and details (both detail out-params are written:
// the zero value says that engine did not run) and the only error wrap.
func run(src source, out sink, d *dtd.DTD, pi dtd.NameSet, opts StreamOptions) (st Stats, err error) {
	var det ParallelDetail
	var pdet PipelineDetail
	defer func() {
		if opts.Detail != nil {
			*opts.Detail = det
		}
		if opts.Pipeline != nil {
			*opts.Pipeline = pdet
		}
		if err != nil {
			err = fmt.Errorf("prune: %w", err)
		}
	}()
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			return st, err
		}
	}
	var size int64
	var sizeKnown bool
	if src.r != nil {
		if data, ok := inputBytesOf(src.r); ok {
			src = source{data: data}
		} else {
			size, sizeKnown = inputSize(src.r)
			if opts.Ctx != nil {
				src.r = &ctxReader{ctx: opts.Ctx, r: src.r}
			}
		}
	}
	if src.r == nil {
		size, sizeKnown = int64(len(src.data)), true
	}
	at := cell{opts.Engine, src.r == nil, out.w == nil}
	if at.eng == EngineAuto {
		at.eng = chooseEngine(size, sizeKnown, at.resident, opts.ParallelWorkers, opts.Validate)
	}
	switch at { // the re-route rows
	case cell{EnginePipelined, fromBytes, toSpans}:
		at.eng = EngineParallel
	case cell{EngineParallel, fromReader, toWriter}:
		var buf bytes.Buffer
		if sizeKnown && size > 0 && size < int64(int(^uint(0)>>1)) {
			buf.Grow(int(size))
		}
		if _, err := buf.ReadFrom(src.r); err != nil {
			return st, err
		}
		src, at.resident = source{data: buf.Bytes()}, fromBytes
	}
	if opts.Chosen != nil {
		*opts.Chosen = at.eng
	}

	var bw *bufio.Writer
	var written *countingWriter
	if out.w != nil {
		written = &countingWriter{w: out.w}
		bw = bwPool.Get().(*bufio.Writer)
		bw.Reset(written)
		defer func() {
			bw.Reset(io.Discard) // drop the caller's writer before pooling
			bwPool.Put(bw)
		}()
	}
	proj := opts.Projection
	if proj == nil {
		proj = d.CompileProjection(pi)
	}
	so := scan.Options{Validate: opts.Validate, MaxTokenSize: opts.MaxTokenSize}
	po := scan.ParallelOptions{Options: so, Workers: opts.ParallelWorkers, ChunkSize: opts.parallelChunkSize, FragTarget: opts.parallelFragTarget}
	switch at {
	case cell{EngineScanner, fromReader, toWriter}:
		st, err = scan.Prune(bw, src.r, d, proj, so)
	case cell{EngineScanner, fromBytes, toWriter}:
		st, err = scan.PruneBytes(bw, src.data, d, proj, so)
	case cell{EngineScanner, fromBytes, toSpans}:
		st, err = scan.PruneGather(out.sl, src.data, d, proj, so)
	case cell{EngineParallel, fromBytes, toWriter}:
		st, det, err = scan.PruneParallel(bw, src.data, d, proj, po)
	case cell{EngineParallel, fromBytes, toSpans}:
		st, det, err = scan.PruneParallelGather(out.sl, src.data, d, proj, po)
	case cell{EnginePipelined, fromReader, toWriter}, cell{EnginePipelined, fromBytes, toWriter}:
		if at.resident {
			src.r = bytes.NewReader(src.data)
		}
		st, pdet, err = scan.PrunePipelined(bw, src.r, d, proj, scan.PipelineOptions{
			Options: so, Workers: opts.ParallelWorkers, FragTarget: opts.parallelFragTarget,
			WindowSize: opts.pipelineWindowSize, RingDepth: opts.pipelineRingDepth,
		})
	default:
		return st, fmt.Errorf("no route for engine %s (resident input %v, span sink %v)", at.eng, at.resident, at.spans)
	}
	if bw == nil {
		st.BytesOut = out.sl.Len()
	} else {
		if err == nil {
			err = bw.Flush()
		}
		st.BytesOut = written.n
	}
	return st, err
}

// ctxReader aborts reads once its context is cancelled, so a prune
// whose client went away or whose deadline passed stops consuming the
// source instead of streaming to completion.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// BytesSource is implemented by readers whose entire content is
// already in memory — an mmap'd file, a buffered request body. Stream
// consults it before reading anything: a non-nil slice switches the
// prune to the zero-copy in-memory paths (StreamBytes) and the reader
// is never read from. InputBytes is called at most once per prune, at
// the point of commitment, so implementations may do real work (map
// the file) and should account the full length as consumed; returning
// nil declines, and the prune falls back to ordinary reads. Wrapping
// readers (counting readers, instrumented streams) should forward it,
// as they do Sizer.
type BytesSource interface {
	InputBytes() []byte
}

func inputBytesOf(src io.Reader) ([]byte, bool) {
	if bs, ok := src.(BytesSource); ok {
		if b := bs.InputBytes(); b != nil {
			return b, true
		}
	}
	return nil, false
}

// Sizer lets a wrapping reader (a counting reader, an instrumented
// stream) forward the size of its underlying input so EngineAuto can
// still consider the parallel pruner.
type Sizer interface {
	InputSize() (size int64, known bool)
}

// InputSize reports the number of unread bytes in src when its concrete
// type (bytes/strings readers, regular files) or a Sizer implementation
// exposes it — the signal EngineAuto uses to decide whether a parallel
// prune is worth buffering the input.
func InputSize(src io.Reader) (int64, bool) { return inputSize(src) }

func inputSize(src io.Reader) (int64, bool) {
	switch r := src.(type) {
	case Sizer:
		return r.InputSize()
	case *bytes.Reader:
		return int64(r.Len()), true
	case *strings.Reader:
		return int64(r.Len()), true
	case *os.File:
		cur, err := r.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false
		}
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() || fi.Size() < cur {
			return 0, false
		}
		return fi.Size() - cur, true
	}
	return 0, false
}

// bwPool recycles the output buffers across prunes; a batch of small
// documents would otherwise allocate a 64 KiB buffer each.
var bwPool = sync.Pool{New: func() any {
	return bufio.NewWriterSize(io.Discard, 1<<16)
}}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
