// Package prune implements type-driven projection (Def. 2.7): given a
// document valid w.r.t. a DTD and a type projector π, it erases every
// node whose name under the interpretation ℑ is not in π.
//
// Stream is the paper's §6 pruner: a single bufferless one-pass traversal
// of the token stream with constant memory, optionally fused with
// validation, suitable for running at parse/load time. It decides on one
// table, π compiled against the grammar's symbols (dtd.Projection), and
// every prune runs on the byte-level scanner (internal/scan). Two other
// pruners are test oracles and no part of the build: the encoding/xml
// pruner (oracle_test.go) and the tree walker, testkit.Prune.
//
// Defended by: Def. 2.7 and §6; `cli_large`, `serve_cold` and `serve_stream` run it.
package prune

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sync"

	"xmlproj/internal/dtd"
	"xmlproj/internal/scan"
	"xmlproj/internal/tree"
)

// Stats reports what a streaming prune did: elements and logical text
// nodes read, written and skipped, bytes written, deepest stack.
type Stats = scan.Stats

// Engine selects the tokenizer behind Stream.
type Engine int

const (
	// EngineAuto is the serial scanner on every input, and the default.
	// Input must be UTF-8: UTF-16/32 fails with scan.ErrNotUTF8.
	EngineAuto Engine = iota
	// EngineScanner forces the byte-level scanner (internal/scan), which
	// is what EngineAuto runs.
	EngineScanner
	// EngineDecoder names the encoding/xml pruner, which is the tests'
	// oracle and not in the build; forcing it is run's "no route" error.
	//
	// Deprecated: kept only because benchmark/seams.go:151 names it.
	EngineDecoder
	// EngineParallel is EngineScanner: the parallel pruner it named is
	// gone, and forcing it runs, and reports, the serial scanner.
	//
	// Deprecated: kept only because benchmark/seams.go:147 names it.
	EngineParallel
	// EnginePipelined is EngineScanner: the pipelined pruner it named is
	// gone, and forcing it runs, and reports, the serial scanner.
	//
	// Deprecated: kept only because benchmark/seams.go:147 names it.
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

// ParallelDetail is the type of xmlproj.BatchResult.Parallel, always
// zero: no prune runs in parallel.
//
// Deprecated: kept only because benchmark/seams.go:402 reads its fields.
type ParallelDetail struct {
	Workers  int
	Fallback bool
}

// StreamOptions configures a streaming prune.
type StreamOptions struct {
	// Validate checks content models, attribute declarations and the root
	// element while pruning (§6: "prune the document while validating it").
	// Validation is fused into the scanner's fast paths: kept input is
	// still emitted as verbatim spans, with every element and text symbol
	// walked through the dense content-model DFAs. The DTD checks cover
	// what π keeps — the root, each kept element's attributes and content
	// model, and each of its children's names; a subtree π discards gets
	// well-formedness only. With π = every name nothing is discarded, and
	// the prune is whole-document validation (xmlproj.DTD.Validate).
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
	// Projection is π compiled against the DTD passed to Stream, and
	// the form every product caller hands π in: compiled once per
	// (DTD, π), not once per document. When it is nil, the pi argument is
	// compiled instead.
	Projection *dtd.Projection
	// ParallelWorkers is ignored: a prune is one serial pass.
	//
	// Deprecated: kept only because benchmark/seams.go:158 sets it.
	ParallelWorkers int
	// Ctx, when non-nil, aborts the prune when the context is cancelled:
	// the source is checked before every read and Stream returns the
	// context error (wrapped), recognisable with errors.Is. Long prunes
	// driven by a server request can thus be cut off when the client
	// goes away or a deadline passes.
	Ctx context.Context
	// Chosen, when non-nil, receives the engine Stream resolved for this
	// input (EngineScanner, unless the engine has no route), so callers
	// can log what actually ran.
	Chosen *Engine
}

// Stream prunes the XML document read from src against π, writing the
// pruned document to dst in one pass. π is opts.Projection; pi, a name
// set, is read only when that is nil (the form benchmark/seams.go hands
// it in). Subtrees rooted at pruned elements
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
	return run(scan.Source{R: src}, sink{w: dst}, d, pi, opts)
}

// StreamBytes is Stream over input that is already fully in memory:
// the scanner aliases data instead of reading and buffering it, so the
// input side copies nothing. Output and stats are byte-identical to
// Stream's; one documented exception: MaxTokenSize is not enforced on
// the in-memory scanner paths (the cap bounds the streaming scanner's
// buffer growth, which in-memory input does not have) — bound such
// inputs by size.
func StreamBytes(dst io.Writer, data []byte, d *dtd.DTD, pi dtd.NameSet, opts StreamOptions) (Stats, error) {
	return run(scan.Source{Data: data}, sink{w: dst}, d, pi, opts)
}

// StreamGather prunes in-memory input into a span-gather result
// instead of a destination writer: a pooled scan.SpanList, the pruned
// output as spans over data plus a small escape buffer of synthesized
// bytes. Output bytes that survive the projection are referenced in
// place, so nothing is copied until the list is written out
// (io.WriterTo: one Write per span, so the writer should buffer). The
// rendered output is byte-identical to Stream's, and stats match it
// (BytesOut is the rendered size). π is given as to Stream: pi is read
// only when opts.Projection is nil.
//
// Only the serial scanner records spans (run). MaxTokenSize is not
// enforced on the in-memory scanner paths (see StreamBytes). On error no
// list is returned and Stats.BytesOut is 0: partial output is discarded,
// unlike the streaming paths, which have already written it. The caller
// must Close the returned list; data must stay alive and unmodified
// until then.
func StreamGather(data []byte, d *dtd.DTD, pi dtd.NameSet, opts StreamOptions) (*scan.SpanList, Stats, error) {
	sl := scan.NewSpanList(data)
	st, err := run(scan.Source{Data: data}, sink{sl: sl}, d, pi, opts)
	if err != nil {
		sl.Close()
		st.BytesOut = 0 // no list is handed back
		return nil, st, err
	}
	return sl, st, nil
}

// Load prunes the document read from src into a table: the pruning
// automaton hands each node π keeps to a tree.Builder (scan.Sink.H),
// so the projected document is built in the pass that prunes it, and is
// neither rendered nor tokenised a second time. The document, the verdict
// and the error are tree.ParseBytes's on what Stream writes, at both
// levels of checking, and node IDs are the pruned document's own
// positions, as that load gives them. Stats are Stream's; BytesOut is the
// length Stream would have written, counted. A BytesSource reader is
// pruned in place; any other is read through the scanner's buffer, so
// MaxTokenSize applies. The builder grows with what is kept: sized from
// the input, it would reserve the whole input's text for a prune that
// keeps a fraction of it. π is given as to Stream: pi is read only when
// opts.Projection is nil.
func Load(src io.Reader, d *dtd.DTD, pi dtd.NameSet, opts StreamOptions) (*tree.Document, Stats, error) {
	b := tree.NewBuilder(0)
	st, err := run(scan.Source{R: src}, sink{h: b}, d, pi, opts)
	if err != nil {
		return nil, st, err
	}
	doc, err := b.Loaded()
	return doc, st, err
}

// sink is where a prune's kept document goes: a writer, a span list over
// the resident input, or a handler given the kept nodes (the table sink).
// One is set. run hands it to the scanner as a scan.Sink, w behind a
// pooled bufio.Writer that counts what reaches it.
type sink struct {
	w  io.Writer
	sl *scan.SpanList
	h  scan.Handler
}

func (o sink) String() string {
	switch {
	case o.sl != nil:
		return "span"
	case o.h != nil:
		return "handler"
	}
	return "writer"
}

// run is the one route every streaming prune takes. It resolves the
// source (a reader that is a BytesSource is resident input) and the
// engine: EngineAuto and the deprecated EngineParallel and
// EnginePipelined are the serial scanner, which takes every source into
// every sink (scan.Prune). Any other engine fails with "no route":
// EngineDecoder, whose pruner is the tests' oracle, and an unknown one. A
// span sink needs resident input, so no entry point builds reader ×
// spans, and StreamMultiGather, one gather per projector, has span
// lists only.
//
// It holds the only projection compile, the only hand-back of stats and,
// with cancelled and wrap, the only context check and error wrap.
func run(src scan.Source, out sink, d *dtd.DTD, pi dtd.NameSet, opts StreamOptions) (st Stats, err error) {
	defer func() { err = wrap(err) }()
	if err := cancelled(opts.Ctx); err != nil {
		return st, err
	}
	if bs, ok := src.R.(BytesSource); ok {
		if data := bs.InputBytes(); data != nil {
			src = scan.Source{Data: data}
		}
	}
	if src.R != nil && opts.Ctx != nil {
		src.R = &ctxReader{ctx: opts.Ctx, r: src.R}
	}
	eng := opts.Engine
	if eng == EngineAuto || eng == EngineParallel || eng == EnginePipelined {
		eng = EngineScanner
	}
	if opts.Chosen != nil {
		*opts.Chosen = eng
	}
	if eng != EngineScanner {
		return st, fmt.Errorf("no route for engine %s (resident input %v, %s sink)", eng, src.R == nil, out)
	}

	to := scan.Sink{Spans: out.sl, H: out.h}
	var written *countingWriter
	if out.w != nil {
		written = &countingWriter{w: out.w}
		to.W = bwPool.Get().(*bufio.Writer)
		to.W.Reset(written)
		defer func() {
			to.W.Reset(io.Discard) // drop the caller's writer before pooling
			bwPool.Put(to.W)
		}()
	}
	proj := opts.Projection
	if proj == nil {
		proj = d.CompileProjection(pi)
	}
	st, err = scan.Prune(src, to, d, proj, scan.Options{Validate: opts.Validate, MaxTokenSize: opts.MaxTokenSize})
	// A handler sink's BytesOut was counted by the scanner.
	switch {
	case to.W != nil:
		if err == nil {
			err = to.W.Flush()
		}
		st.BytesOut = written.n
	case out.sl != nil:
		st.BytesOut = out.sl.Len()
	}
	return st, err
}

// cancelled is ctx's error, and nil for a nil ctx: the check a prune
// makes before it reads anything.
func cancelled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// wrap names the package on a prune's error.
func wrap(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("prune: %w", err)
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
// readers (counting readers, instrumented streams) should forward it.
type BytesSource interface {
	InputBytes() []byte
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
