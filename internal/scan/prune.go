package scan

// The pruning automaton. One pass of the byte-level scanner prunes the
// document with one projector, compiled into a decision table
// (dtd.Projection) that answers keep-element, keep-text and
// keep-attribute per symbol with an array lookup. Every element on the
// stack is kept: a start tag π discards is consumed with its whole
// subtree by the skip scan (checked token by token with Validate, only
// balanced without — skip.go), so a discarded region never reaches the
// main loop. The one output is a bufio.Writer, a gather list, a Handler
// (the table sink: the kept nodes as events, nothing rendered) or
// nothing. Many queries are one projector: projectors are closed under
// union (§4.2), so one pass serves a whole set.
//
// Output is written through the emitter seam as spans of the scanner's
// buffer wherever the input already is the canonical rendering — tags
// with nothing dropped, end tags, text with nothing to escape — and as
// synthesized bytes otherwise. Adjacent spans merge into one pending run
// (rawTo) before they reach the sink — a start tag's withheld '>'
// included, which goes out as the input's own byte when the tag did — so
// a subtree π keeps whole is one gather segment, or one Write, without
// any token handler knowing it is in one. Offsets are relative to the
// scanner's mark, pinned at each token's first byte, so they survive
// buffer refills when the input is a reader.
//
// Validation covers the regions π keeps. A verdict — a validation
// error, or two kept attributes the output would write under one name —
// ends the pass where it is found (verdict), as a syntax or
// well-formedness error does. A start tag is decided attribute by
// attribute as it is read, so a verdict on an earlier attribute comes
// before a syntax error later in the same tag.

import (
	"bufio"
	"fmt"
	"io"
	"sync"

	"xmlproj/internal/dtd"
)

// Options configures a scanner-based prune.
type Options struct {
	// Validate checks the document while pruning it: the root element,
	// and the content models and attribute declarations of what π keeps,
	// against the DTD, and well-formedness everywhere, the subtrees π
	// discards included (their DTD validity is not looked at).
	// Without it the prune guarantees well-formedness where π keeps and
	// structural balance where it discards (skip.go says exactly what is
	// and is not seen in there) — sound for the paper's claim, which
	// assumes valid input (Thm. 4.5), and several times faster.
	Validate bool
	// MaxTokenSize bounds the scanner's sliding buffer: a single token
	// (one tag, one text chunk, one attribute value) larger than this
	// fails with scan.ErrTokenTooLong. Zero means DefaultMaxTokenSize.
	MaxTokenSize int

	// general sends every start tag the long way, past the tag kernel,
	// which is how the kernel is held to it (the tests' only switch).
	general bool
}

// Stats reports what a streaming prune did. ElementsIn, ElementsOut,
// ElementsSkipped, TextOut, BytesOut and MaxDepth do not depend on
// Options.Validate; TextIn and TextSkipped do.
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
	// leaves it zero, since only the owner of a writer or span sink
	// (internal/prune) can count it, except for a Handler, which is given
	// no bytes: there it is the length the rendering would have had.
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

// Source is where a prune's bytes come from: R, read through the
// scanner's sliding buffer, or, when R is nil, Data, a document already
// resident in memory and scanned in place, so nothing is read or copied
// on the input side. MaxTokenSize is not enforced on resident input: the
// cap bounds the sliding buffer's growth, and resident input has no
// buffer to grow; bound such inputs by size before handing them over.
type Source struct {
	R    io.Reader
	Data []byte
}

// Sink is where the kept document goes. Exactly one field is set:
//
//   - W is written the rendering, byte-identical to the encoding/xml-based
//     pruner's;
//   - Spans records it as a gather list of input spans plus a small escape
//     buffer of synthesized bytes, copying nothing; it is Reset over the
//     input first, which must be resident (gather spans are input
//     offsets); the rendering (SpanList.WriteTo, AppendTo, Bytes) is W's;
//   - H is the table sink: it receives the pruned document as Walk would
//     report it — each kept element with its kept attributes (input order,
//     values decoded, namespace declarations left out), each run of kept
//     text decoded and joined up to the next kept tag, each end of a kept
//     element — so that a tree.Builder given the events builds what a load
//     of W's rendering builds, in the pass that prunes. Nothing is
//     rendered: Stats.BytesOut is the length W would have been written,
//     counted.
type Sink struct {
	W     *bufio.Writer
	Spans *SpanList
	H     Handler
}

// Prune runs the pruning automaton from src into out: the input is
// tokenized in place, names resolve through the DTD symbol table, and the
// compiled projection answers keep/skip per element with an array
// lookup. Every source goes into every sink but a reader into spans.
// proj is one projector's table: a pass prunes with one. Scanner and
// pruner state come from a pool and are returned on completion.
func Prune(src Source, out Sink, d *dtd.DTD, proj *dtd.Projection, opts Options) (Stats, error) {
	if out.Spans != nil && src.R != nil {
		panic("scan.Prune: a span sink needs resident input")
	}
	pr := prunerPool.Get().(*pruner)
	if src.R != nil {
		pr.s.Reset(src.R)
	} else {
		pr.s.ResetBytes(src.Data)
	}
	pr.prep(d, proj, opts)
	pr.use(out)
	if out.Spans != nil {
		out.Spans.Reset(src.Data)
	}
	return pr.finish(pr.run())
}

// prep prepares pooled state for a new input. The caller has already
// pointed the scanner at the input (Reset / ResetBytes) and must install
// the output target (use) before run.
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
	pr.runOff, pr.runEnd = 0, 0
	pr.stack = pr.stack[:0]
	pr.open, pr.openRaw, pr.sawRoot, pr.runPending = false, false, false, false
	pr.textBuf = pr.textBuf[:0]
	pr.skipNames.reset()
	pr.skipDepth = 0
	pr.counted.n, pr.htext = 0, pr.htext[:0]
}

// use installs out's side state and the emitter through which the
// automaton writes to it. The stream and count emitters live inside the
// pooled pruner, so installing a sink allocates nothing.
func (pr *pruner) use(out Sink) {
	switch {
	case out.Spans != nil:
		pr.out = out.Spans
	case out.H != nil:
		// The kept nodes go to h where they are decided (handStart,
		// handEnd, and the text they gather), and the rendering, which the
		// span and literal logic still drive as for a writer, is only
		// counted.
		pr.h = out.H
		pr.out = &pr.counted
	default:
		pr.se.bw = out.W
		pr.out = &pr.se
	}
}

// finish ends a prune and recycles the pruner. Only a handler sink's
// BytesOut is known here: it was counted.
func (pr *pruner) finish(err error) (Stats, error) {
	pr.flushRuns()
	st := pr.st
	st.BytesOut = pr.counted.n
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
	pr.out = nil
	pr.s.Reset(nil)
	pr.d, pr.p = nil, nil
	pr.tag = openTag{}
	clear(pr.kattrs[:cap(pr.kattrs)])
	// The long way's scratch is dropped once a wide tag has grown it, as
	// Reset drops a buffer a long token grew: a pooled pruner does not
	// keep memory in proportion to the widest tag it has read.
	if cap(pr.ltag.seen.at) > 2*8*speltLinear {
		pr.ltag = tagAttrs{}
	}
	clear(pr.ltag.attrs[:cap(pr.ltag.attrs)])
	pr.se.bw = nil
	pr.h = nil
}

// frame is one open element, kept: a discarded one is never pushed.
type frame struct {
	sym    int32
	prefix string        // interned; "" for unprefixed tags
	state  int32         // dense content-model DFA state (when validating)
	aut    *dtd.DenseDFA // the element's dense automaton
}

// openTag is the kept start tag the automaton is deciding: its element,
// set by head, and from keep on its prefix, its attribute decisions, and
// canon, whether its rendering so far is still the raw span from the
// mark.
type openTag struct {
	sym    int32
	info   *dtd.SymInfo
	prefix string
	decl   []dtd.AttrProj
	canon  bool
}

type pruner struct {
	s    *Scanner
	d    *dtd.DTD
	p    *dtd.Projection
	opts Options
	st   Stats

	// out is the output target; se backs the streaming one so installing
	// it never allocates.
	out emitter
	se  streamEmitter
	// The pending run: the span buf[runOff:runEnd] of the scanner's buffer
	// is due to out but not handed over yet, so that spans adjacent to it
	// extend it instead of costing a call each. It goes out (flushRun)
	// before anything else does, at the end of the pass, and before the
	// bytes it points at move.
	runOff, runEnd int

	// The table sink (Sink.H). h is handed the kept nodes, and
	// counted, the output, sums what a writer would have been given.
	// htext is the decoded text kept since the last kept tag: a discarded
	// element between two runs does not part them, as it does not in the
	// rendering. hvals holds the kept start tag's attribute names and
	// values, then its tag, hends where each ends, hattrs the view of them
	// that h gets.
	h            Handler
	counted      countEmitter
	htext, hvals []byte
	hends        []int
	hattrs       []Attr

	stack []frame
	// open is set while the '>' of the last start tag written is
	// provisional, so the element can still come out as <e/>. Where the
	// tag went out as an input span (openRaw) the '>' sits at the end of
	// the pending run, to be taken back if the element self-closes;
	// elsewhere it is withheld and synthesized on demand.
	open, openRaw bool
	sawRoot       bool

	// Logical text run: runPending is set when a non-whitespace chunk
	// joined the current run; textBuf holds the decoded bytes not already
	// emitted as a verbatim span.
	runPending bool
	textBuf    []byte

	// tag is the start tag being decided; kattrs holds the attributes the
	// tag kernel read of it, ltag what the long way read of it, or of a
	// discarded tag under Validate. tagBuf is its rendering once it can no
	// longer be the raw span (demote).
	tag    openTag
	kattrs []Attr
	ltag   tagAttrs
	tagBuf []byte

	attrBuf  []byte // shared escaped text / end-tag scratch
	skipText []byte // text the skip scan decodes and drops
	seen     []bool // declared-attribute tracking for #REQUIRED checks
	// locals is the local parts of the tag's attribute names, recorded
	// from its first kept prefixed attribute on (keepLocal).
	locals struct {
		spelt
		on bool
	}
	prefixes map[string]string

	// skipNames are the full names of the discarded elements the skip
	// scan is inside, for their end tags to match.
	skipNames nameStack
	// skipDepth is the structural skip's depth below the one name it
	// keeps, the discarded element's own (skipBalance).
	skipDepth int
}

// maxRun is the length past which a pending run is handed to its sink
// rather than extended: output trails the read position by little more
// than this, at one sink call per 4 KiB of kept input.
const maxRun = 4 << 10

// Emission helpers. rawTo emits the span buf[off:end] of the scanner's
// buffer: it only extends the pending run when adjacent to it. The lit
// helpers emit synthesized bytes, behind the run.

func (pr *pruner) rawTo(off, end int) {
	if pr.runEnd != off || end-pr.runOff > maxRun {
		pr.flushRun()
		pr.runOff = off
	}
	pr.runEnd = end
}

func (pr *pruner) flushRun() {
	if pr.runOff < pr.runEnd {
		pr.out.raw(pr.s.buf, pr.runOff, pr.runEnd)
		pr.runOff = pr.runEnd
	}
}

// flushRuns hands the pending run to the sink, short of a provisional
// '>', which is withheld from here on. It is the scanner's beforeFill
// hook — a refill moves the bytes runs point at — and runs at the end of
// a pass.
func (pr *pruner) flushRuns() {
	if pr.open && pr.openRaw {
		pr.runEnd--
	}
	pr.openRaw = false
	pr.flushRun()
}

func (pr *pruner) lit(p []byte) {
	pr.flushRun()
	pr.out.lit(p)
}

func (pr *pruner) litString(s string) {
	pr.flushRun()
	pr.out.litString(s)
}

// verdict ends the pass with err, a verdict on the document. The output
// stops where the verdict is found: a provisional '>' riding the pending
// run goes out with it, where a syntax error's pass takes it back.
func (pr *pruner) verdict(err error) error {
	pr.open = false
	return err
}

// closeOpen commits a provisional start-tag '>': a synthesized one is
// written, one riding the run stays.
func (pr *pruner) closeOpen() {
	if pr.open {
		pr.open = false
		if !pr.openRaw {
			pr.litString(">")
		}
	}
}

func (pr *pruner) run() error {
	s := pr.s
	if err := s.checkEncoding(); err != nil {
		return err
	}
	for {
		s.setMark()
		if s.pos == s.end && !s.fill() {
			if !s.atEOF() {
				return s.rerr
			}
			break
		}
		if s.buf[s.pos] != '<' {
			if err := pr.chunk(false); err != nil {
				return err
			}
			continue
		}
		s.pos++
		// As in the walk: an end tag and a plain start tag (the tag
		// kernel) are taken straight from the bytes, and whatever the
		// kernel refuses, a second root included, goes through markup from
		// the same byte; every start tag is decided by startTag.
		if s.pos < s.end && s.buf[s.pos] == '/' {
			s.pos++
			if err := pr.endTag(); err != nil {
				return err
			}
			continue
		}
		if !pr.opts.general && (len(pr.stack) > 0 || !pr.sawRoot) {
			if name, attrs, empty, canon, ok := s.plainTag(pr.kattrs[:0], true); ok {
				pr.kattrs = attrs
				if err := pr.startTag(name, attrs, empty, canon); err != nil {
					return err
				}
				continue
			}
		}
		kind, err := s.markup()
		if err != nil {
			return err
		}
		switch kind {
		case markupStart:
			err = pr.startTag(nil, nil, false, false)
		case markupEnd:
			err = pr.endTag()
		case markupCDATA:
			err = pr.chunk(true)
		}
		if err != nil {
			return err
		}
	}
	if !pr.sawRoot {
		return ErrNoRoot
	}
	if len(pr.stack) != 0 {
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
// scanner's buffer when π keeps this element's text — its raw bytes
// equal the escaped output — instead of joining the run buffer, and one
// plainChunk took whole is not copied anywhere.
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
	if info.ws {
		return nil
	}
	if len(pr.stack) == 0 {
		// A well-formedness error at both levels of checking, in
		// scan.Walk's words.
		return errOutsideRoot
	}
	pr.runPending = true
	switch {
	case !pr.p.KeepText(pr.stack[len(pr.stack)-1].sym):
		// π drops this element's text: the run only needs its counters
		// and placement validation, not its bytes.
	case info.verbatim && !cdata && kept == 0:
		// The raw bytes are exactly the canonical output (a CDATA body
		// never is: it is re-escaped) and nothing earlier in this run is
		// pending in the buffer, which a later flush would reorder behind
		// these bytes.
		pr.closeOpen()
		pr.rawTo(s.mark, s.pos)
		if pr.h != nil {
			// Verbatim: the raw bytes are the decoded ones too.
			pr.htext = append(pr.htext, s.buf[s.mark:s.pos]...)
		}
	case plain:
		pr.textBuf = append(pr.textBuf, chunk...)
	default:
		pr.textBuf = out
	}
	return nil
}

// flushText ends the current logical text run, if there is one: counts
// it, validates its placement, and emits the escaped remainder when π
// keeps it.
func (pr *pruner) flushText() error {
	if !pr.runPending {
		return nil
	}
	pr.runPending = false
	pr.st.TextIn++
	top := &pr.stack[len(pr.stack)-1]
	if pr.opts.Validate {
		if next := top.aut.NextText(top.state); next < 0 {
			return pr.verdict(fmt.Errorf("text content not allowed in %s", pr.p.Syms.Info(top.sym).Name))
		} else {
			top.state = next
		}
	}
	if pr.p.KeepText(top.sym) {
		pr.closeOpen()
		if len(pr.textBuf) > 0 {
			pr.attrBuf = appendEscaped(pr.attrBuf[:0], pr.textBuf, false)
			pr.lit(pr.attrBuf)
			if pr.h != nil {
				pr.htext = append(pr.htext, pr.textBuf...)
			}
		}
		pr.st.TextOut++
	}
	pr.textBuf = pr.textBuf[:0]
	return nil
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

// startTag is the automaton's one entry for a start tag; the mark is at
// its '<'. Of a plain tag the kernel has read name, attrs (views, each
// spelt ` name="value"` behind the last when canon), whether it is empty
// and canon, that it is spelt as it is rendered. Of any other name is nil,
// and the long way reads it here: the name, then the rest once head has
// said whether π keeps the tag — pinned, for attribute to decide, or,
// when it does not, by skipTag. Both end in one decision: head resolves
// the tag and decides whether it is kept, keep starts its rendering,
// attribute decides each attribute and element opens and emits the
// element.
func (pr *pruner) startTag(name []byte, attrs []Attr, empty, canon bool) error {
	s := pr.s
	kernel, prefix, local := name != nil, []byte(nil), name
	if !kernel {
		var err error
		if name, prefix, local, err = s.qname("element name after <"); err != nil {
			return err
		}
		if len(pr.stack) == 0 && pr.sawRoot {
			// A well-formedness error at both levels of checking, in
			// scan.Walk's words.
			return fmt.Errorf("multiple root elements")
		}
	}
	kept, err := pr.head(local)
	if err != nil {
		return err
	}
	if !kept {
		if empty {
			return nil
		}
		// Discarded: one skip pass over the rest of the tag and the
		// subtree. The name is copied before the rest of the tag moves the
		// buffer; the root's end tag must match it.
		pr.skipNames.push(name)
		if !kernel {
			if empty, err = pr.skipTag(); err != nil {
				return err
			}
			if empty {
				pr.skipNames.pop()
				return nil
			}
		}
		s.clearMark() // the tag is read: nothing in it is needed again
		return pr.skipAll()
	}
	pr.keep(pr.intern(prefix))
	if kernel {
		// A tag not spelt as rendered is rendered from its first attribute.
		if !canon {
			pr.demote(1 + len(name))
		}
		at := 1 + len(name)
		for i, a := range attrs {
			if err := pr.attribute(i, nil, a.Name, a.Value, at, true); err != nil {
				return err
			}
			at += len(` =""`) + len(a.Name) + len(a.Value)
		}
		return pr.element(empty)
	}
	empty, err = s.longTag(&pr.ltag, true)
	// The attributes read are decided before an error that ended the tag:
	// a verdict on one of them comes first.
	for i := range pr.ltag.attrs {
		a := &pr.ltag.attrs[i]
		if err := pr.attribute(i, a.prefix, a.Name, a.Value, a.at, a.canon); err != nil {
			return err
		}
	}
	if err != nil {
		return err
	}
	if pr.ltag.tail >= 0 {
		pr.demote(pr.ltag.tail)
	}
	return pr.element(empty)
}

// head counts a start tag whose name is read, ending the text run before
// it, resolves its local part and steps the content model, and reports
// whether π keeps the element.
func (pr *pruner) head(local []byte) (bool, error) {
	pr.st.ElementsIn++
	pr.sawRoot = true
	if err := pr.flushText(); err != nil {
		return false, err
	}
	sym, found := pr.p.Syms.Lookup(local)
	if !found {
		return false, pr.verdict(fmt.Errorf("element %q not declared in DTD", local))
	}
	info := pr.p.Syms.Info(sym)
	if pr.opts.Validate {
		if len(pr.stack) == 0 {
			if info.Name != pr.d.Root {
				return false, pr.verdict(fmt.Errorf("root element is %s, DTD requires %s", info.Name, pr.d.Root))
			}
		} else {
			// The parent's dense automaton takes the child transition
			// with two array loads — no name hashing on the hot path.
			top := &pr.stack[len(pr.stack)-1]
			next := top.aut.Next(top.state, sym)
			if next < 0 {
				return false, pr.verdict(fmt.Errorf("element %s not allowed here in content of %s",
					info.Name, pr.p.Syms.Info(top.sym).Name))
			}
			top.state = next
		}
	}
	pr.tag.sym, pr.tag.info = sym, info
	return pr.p.KeepElem(sym), nil
}

// keep starts the rendering of a kept start tag, prefix its name's
// prefix, interned. Rendering is lazy: while tag.canon holds, the
// rendering so far is exactly the raw span from the mark, so nothing is
// materialised — the bytes are emitted straight from the scanner's
// buffer. At the first deviation the tag is demoted: the still-canonical
// head of the span is copied into tagBuf and kept attributes append
// canonically from there.
func (pr *pruner) keep(prefix string) {
	t := &pr.tag
	t.prefix = prefix
	pr.closeOpen()
	if pr.h != nil {
		pr.hvals, pr.hends = pr.hvals[:0], pr.hends[:0]
	}
	t.canon = prefix == ""
	if !t.canon {
		// The prefix is dropped in canonical output, so no raw span was
		// ever equal to the rendering.
		pr.tagBuf = append(append(pr.tagBuf[:0], '<'), t.info.Tag...)
	}
	t.decl = pr.p.Attrs(t.sym)
	if pr.opts.Validate {
		if cap(pr.seen) < len(t.decl) {
			pr.seen = make([]bool, len(t.decl))
		}
		pr.seen = pr.seen[:len(t.decl)]
		for i := range pr.seen {
			pr.seen[i] = false
		}
	}
	pr.locals.on = false
}

// demote takes a still-canonical tag off the raw span: the span's head,
// up to boundaryRel from the mark, is copied into tagBuf.
func (pr *pruner) demote(boundaryRel int) {
	if pr.tag.canon {
		s := pr.s
		pr.tagBuf = append(pr.tagBuf[:0], s.buf[s.mark:s.mark+boundaryRel]...)
		pr.tag.canon = false
	}
}

// attribute decides the i-th attribute of a kept start tag, read from
// preSpace, the offset from the mark of the space before it, with the
// value val decoded: it validates it, and when π keeps it, leaves it on
// the raw span while canon says its bytes are its rendering, or appends
// it to tagBuf.
func (pr *pruner) attribute(i int, aprefix, alocal, val []byte, preSpace int, canon bool) error {
	t := &pr.tag
	decl := t.decl
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
		pr.demote(preSpace)
		return nil
	}
	if pr.opts.Validate {
		if api < 0 {
			return pr.verdict(fmt.Errorf("undeclared attribute %q on %s", alocal, t.info.Tag))
		} else if ad := decl[api].Def; len(ad.Enum) > 0 && !inEnum(ad.Enum, val) {
			return pr.verdict(fmt.Errorf("attribute %q on %s has value %q outside its enumeration", alocal, t.info.Tag, val))
		} else if ad.Fixed != "" && string(val) != ad.Fixed {
			return pr.verdict(fmt.Errorf("attribute %q on %s must have fixed value %q", alocal, t.info.Tag, ad.Fixed))
		}
	}
	kept := api >= 0 && decl[api].Keep
	if !kept || !canon {
		// A dropped attribute ends the raw span, and so do bytes that are
		// not the attribute's canonical form.
		pr.demote(preSpace)
	}
	if !kept {
		return nil
	}
	if len(aprefix) != 0 || pr.locals.on {
		if err := pr.keepLocal(t.info.Tag, i); err != nil {
			return pr.verdict(err)
		}
	}
	if pr.h != nil {
		pr.handAttr(alocal, val)
	}
	if !t.canon {
		pr.tagBuf = append(append(pr.tagBuf, ' '), alocal...)
		pr.tagBuf = append(pr.tagBuf, '=', '"')
		pr.tagBuf = appendEscaped(pr.tagBuf, val, true)
		pr.tagBuf = append(pr.tagBuf, '"')
	}
	return nil
}

// element ends a kept start tag, read whole: it checks the required
// attributes, then opens the element and emits the tag — the raw span
// while canonical, tagBuf otherwise, and the handler's event.
func (pr *pruner) element(empty bool) error {
	s, t := pr.s, &pr.tag
	info := t.info
	if pr.opts.Validate {
		for i := range t.decl {
			if t.decl[i].Def.Required && !pr.seen[i] {
				return pr.verdict(fmt.Errorf("missing required attribute %q on %s", t.decl[i].Def.Attr, info.Tag))
			}
		}
	}

	// Only a validating prune steps the automaton, and only then do the
	// dense tables exist (prep); state 0 is every DenseDFA's start state.
	var aut *dtd.DenseDFA
	if pr.opts.Validate {
		aut = info.Dense
	}
	pr.stack = append(pr.stack, frame{sym: t.sym, prefix: t.prefix, aut: aut})
	depth := len(pr.stack)
	pr.st.MaxDepth = max(pr.st.MaxDepth, depth)
	if empty {
		// The decoder synthesizes the end element immediately.
		if pr.opts.Validate && !aut.Accepting(aut.Start()) {
			return pr.verdict(fmt.Errorf("content of %s is incomplete (model %s)", info.Name, info.Def.Content))
		}
		pr.stack = pr.stack[:depth-1]
		pr.st.ElementsOut++
	} else {
		// The trailing '>' stays provisional (closeOpen) so the element
		// can still self-close in the output.
		pr.open, pr.openRaw = true, t.canon
	}
	if t.canon {
		pr.rawTo(s.mark, s.pos)
	} else {
		pr.lit(pr.tagBuf)
		if empty {
			pr.litString("/>")
		}
	}
	if pr.h != nil {
		pr.handStart(info.Tag)
		if empty {
			pr.handEnd()
		}
	}
	return nil
}

// keepLocal records the local part of the i-th attribute of a tag the
// long way read, which a projector keeps, and reports one the tag has
// already: the output drops prefixes, so p:x beside x or q:x, which XML
// allows, would be written as one name twice. Whether an attribute is kept
// depends on its local part only, so the earlier one is kept too. Nothing
// is recorded until the tag's first kept prefixed attribute, where every
// name before it is.
func (pr *pruner) keepLocal(tag string, i int) error {
	s, l, at := pr.s, &pr.locals, pr.ltag.seen.at
	from := 2 * i
	if !l.on {
		l.on, from = true, 0
		l.reset()
	}
	for k := from; k <= 2*i; k += 2 {
		lo, hi := at[k], at[k+1]
		prefix, local, _ := splitName(s.buf[s.mark+lo : s.mark+hi])
		if isXMLNSAttr(prefix, local) {
			continue
		}
		// Before the current one, names can repeat only among dropped
		// attributes, where nothing is written twice.
		if l.add(s.buf[s.mark:], hi-len(local), hi) != nil && k == 2*i {
			return errSyntax("two attributes named " + string(local) + " on " + tag + " differ only by prefix, which the projection drops")
		}
	}
	return nil
}

// handAttr records a kept attribute of the start tag being read. Its
// name is a view of the buffer, which the next read may move, so both
// are copied.
func (pr *pruner) handAttr(name, value []byte) {
	pr.hvals = append(pr.hvals, name...)
	pr.hends = append(pr.hends, len(pr.hvals))
	pr.hvals = append(pr.hvals, value...)
	pr.hends = append(pr.hends, len(pr.hvals))
}

// handStart hands a kept element to the handler, behind the text kept
// before it.
func (pr *pruner) handStart(tag string) {
	pr.handText()
	at := len(pr.hvals)
	pr.hvals = append(pr.hvals, tag...)
	pr.hattrs = pr.hattrs[:0]
	off := 0
	for i := 0; i < len(pr.hends); i += 2 {
		pr.hattrs = append(pr.hattrs, Attr{Name: pr.hvals[off:pr.hends[i]], Value: pr.hvals[pr.hends[i]:pr.hends[i+1]]})
		off = pr.hends[i+1]
	}
	pr.h.StartElement(pr.hvals[at:], pr.hattrs)
}

// handEnd closes a kept element in the handler, behind the text kept
// inside it.
func (pr *pruner) handEnd() {
	pr.handText()
	pr.h.EndElement()
}

func (pr *pruner) handText() {
	if len(pr.htext) > 0 {
		pr.h.Text(pr.htext)
		pr.htext = pr.htext[:0]
	}
}

// endTag handles an end tag; "</" is consumed and the mark is at '<'.
func (pr *pruner) endTag() error {
	s := pr.s
	// canon: the input spells the canonical "</tag>". When the bytes after
	// "</" are the open element's tag and '>', that comparison is the whole
	// check: the name was validated where it opened.
	canon := false
	if len(pr.stack) > 0 {
		top := &pr.stack[len(pr.stack)-1]
		canon = top.prefix == "" && closes(s, pr.p.Syms.Info(top.sym).Tag)
	}
	if canon {
		if err := pr.flushText(); err != nil {
			return err
		}
	} else {
		name, prefixB, local, spaced, err := s.endName()
		if err != nil {
			return err
		}
		if err := pr.flushText(); err != nil {
			return err
		}
		if len(pr.stack) == 0 {
			return fmt.Errorf("unbalanced end element %s", local)
		}
		top := pr.stack[len(pr.stack)-1]
		if tag := pr.p.Syms.Info(top.sym).Tag; string(local) != tag || string(prefixB) != top.prefix {
			return fmt.Errorf("element <%s> closed by </%s>", tag, name)
		}
		canon = len(prefixB) == 0 && !spaced
	}
	top := pr.stack[len(pr.stack)-1]
	info := pr.p.Syms.Info(top.sym)
	if pr.opts.Validate && !top.aut.Accepting(top.state) {
		return pr.verdict(fmt.Errorf("content of %s is incomplete (model %s)", info.Name, info.Def.Content))
	}
	pr.stack = pr.stack[:len(pr.stack)-1]
	pr.st.ElementsOut++
	if pr.h != nil {
		pr.handEnd()
	}
	switch {
	case pr.open:
		pr.open = false
		if pr.openRaw {
			pr.runEnd-- // take the '>' back
		}
		pr.litString("/>")
	case canon:
		pr.rawTo(s.mark, s.pos) // raw "</tag>" is canonical
	default:
		pr.attrBuf = append(append(pr.attrBuf[:0], '<', '/'), info.Tag...)
		pr.attrBuf = append(pr.attrBuf, '>')
		pr.lit(pr.attrBuf)
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

// Entity returns what c is written as in element content (quot false)
// or a double-quoted attribute value (quot true), or "" for a byte
// written as it is. It is the one escaping rule of the pruner and the
// tree serialiser, which must agree byte for byte: a pruned load is the
// load of what the pruner writes. A carriage return is a reference:
// written raw, any XML reader reads it back as a line feed.
func Entity(c byte, quot bool) string {
	switch c {
	case '&':
		return "&amp;"
	case '<':
		return "&lt;"
	case '>':
		return "&gt;"
	case '\r':
		return "&#13;"
	case '"':
		if quot {
			return "&quot;"
		}
	}
	return ""
}

// appendEscaped appends b escaped by Entity: as text content (quot
// false) or as a double-quoted attribute value (quot true).
func appendEscaped(dst, b []byte, quot bool) []byte {
	for _, c := range b {
		if e := Entity(c, quot); e != "" {
			dst = append(dst, e...)
		} else {
			dst = append(dst, c)
		}
	}
	return dst
}
