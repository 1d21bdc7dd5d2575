// Package index builds a structural index of an XML document for the
// parallel pruner, simdjson-style: the input is split into byte chunks
// scanned concurrently for structural '<' positions, each classified as
// a start tag, end tag, comment, CDATA section, processing instruction
// or directive; a cheap sequential fix-up pass then stitches chunk
// boundaries (a construct spanning a cut invalidates the speculative
// entries it covers) and prefix-sums depth deltas into absolute depths.
//
// Classification is context-free: given that an offset really is a
// structural '<' (outside every tag, comment, CDATA section, PI and
// directive), the construct's kind and extent depend only on the bytes
// from that offset forward. Workers therefore scan speculatively —
// assuming their chunk starts in element content — and the stitch pass
// validates each speculative entry by reaching it through verified
// ground: an entry is kept only when the scan cursor arrives at its
// offset through a gap the worker proved free of '<'. Entries the
// cursor lands inside of (the worker had desynchronised) are dropped
// and the region is rescanned serially until it resynchronises.
//
// The index holds cut points, not tags. Its one consumer, the fragment
// planner, only ever looks at the children of elements larger than a
// threshold (Options.Collapse), so every element no larger than that is
// folded into a single Element entry as soon as its end tag is seen —
// by the chunk workers when both tags lie in one chunk, by the stitch
// otherwise — and each surviving Start entry records its End entry's
// position. Entries, time and memory are then proportional to the
// number of children of dominant elements, not to the number of tags.
//
// The index is intentionally conservative: structure it cannot classify
// (an unterminated construct, '<' inside a quoted attribute value, no
// single non-empty root) reports ErrStructure and the caller falls back
// to the serial pruner, which reproduces the exact serial verdict.
//
// Beside the classifier (Classify, classify.go) sits the structural
// skip's sweep, Balance: the pruner balances a subtree it discards
// without tokenising it, and Balance passes the text, start tags and
// inner end tags of such a subtree in one loop over the bytes in hand,
// reading each start tag with the classifier's own start-tag rule and
// handing everything else back to a per-construct Classify loop.
// Below a start tag, with 64 bytes in hand, it works a window at a time
// (window.go): one call to an AVX2 + PCLMULQDQ kernel
// (window_amd64.s) gives the window's '<', '>', '/', '"', single-quote
// and '!'/'?' bitmaps and the in-tag mask, the prefix XOR of '<' | '>'.
// Up to the window's last construct boundary, stopping short of the
// first byte the bitmaps cannot vouch for (a '<' inside a tag, a '>'
// in text, "<!" or "<?", a single quote in a tag, a quoted '<' or
// '>'), start tags, end tags and self-closing tags are popcounts; when
// the window has more end tags than the depth, its tags are walked in
// order up to the one that finds depth 0. Anything else takes one turn
// of the per-construct loop, so Balance returns what the loop alone
// returns. The kernel is chosen once, from CPUID and XGETBV; on other
// CPUs and architectures Balance is the loop alone.
//
// Defended by: `scan.skip_mb_s` (the skip path's sweep and classifier) and `index.build_mb_s`.
package index

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Kind classifies one structural entry.
type Kind uint8

const (
	// Start is a start tag <e ...>; StartEmpty an empty-element tag
	// <e .../>; End an end tag </e>.
	Start Kind = iota
	StartEmpty
	End
	// Comment, PI, CDATA and Directive are the non-element constructs;
	// they do not change depth.
	Comment
	PI
	CDATA
	Directive
	// Element is a whole element no larger than Options.Collapse, start
	// tag through end tag, folded into one entry.
	Element
)

// Entry is one structural position: the construct's byte extent
// [Off, End), its kind, the element symbol for tags (-1 when the name
// is not in the DTD or not a tag), and the absolute element depth
// assigned by the stitch pass. Depth is the number of open elements
// enclosing the construct, with an End tag recording the depth of the
// element it closes — an element's Start and End entries carry the
// same Depth (the root's are 0, its children's 1, and so on). Match is
// set on Start entries of a batch index only: the Entries position of
// the element's End entry.
type Entry struct {
	Off   int
	End   int
	Sym   int32
	Depth int32
	Match int32
	Kind  Kind
}

// Options configures Build.
type Options struct {
	// Workers bounds stage-1 parallelism; 0 means GOMAXPROCS.
	Workers int
	// ChunkSize is the byte-chunk granularity for the parallel scan;
	// 0 picks a size from the input length and worker count.
	ChunkSize int
	// MaxTokenSize bounds a single construct or inter-construct text
	// gap; longer ones fail with ErrTokenTooLong, mirroring the serial
	// scanner's sliding-buffer cap. 0 means no stage-1 bound.
	MaxTokenSize int
	// Lookup resolves a tag's local name to its DTD symbol (for Entry.Sym);
	// nil leaves every Sym at -1.
	Lookup func(local []byte) (int32, bool)
	// Collapse is the largest element, in bytes from its start tag's '<'
	// to its end tag's '>', that is folded into one Element entry. The
	// caller promises not to look inside such elements: the planner
	// passes twice its fragment target, computed once and shared with
	// plan. 0 means 2×FragTarget(len(data), workers); 1 folds nothing
	// (no element is that small).
	Collapse int
}

// FragTarget is the planner's default per-fragment size for a document
// of dataLen bytes pruned by workers workers. It lives here because it
// also sets the default collapse threshold.
func FragTarget(dataLen, workers int) int {
	const minTarget, maxTarget = 128 << 10, 8 << 20
	return min(max(dataLen/(workers*8), minTarget), maxTarget)
}

// Index is the structural index of one document.
type Index struct {
	Entries []Entry
	// RootStart and RootEnd are the Entries indexes of the root
	// element's start and end tags.
	RootStart, RootEnd int

	chunks [][]Entry // pooled per-chunk scratch
	open   []int32   // stitch scratch: Entries positions of the open Starts
}

// ErrStructure reports document structure the index cannot describe
// (an unterminated construct, '<' inside a quoted value, no single
// non-empty root element, unbalanced tags). The caller is expected to
// fall back to the serial pruner, which either handles the input or
// reproduces the serial error verdict.
var ErrStructure = errors.New("index: document structure unsuitable for parallel pruning")

// ErrTokenTooLong reports a single construct or text gap longer than
// Options.MaxTokenSize, detected in stage 1 before any fragment work.
var ErrTokenTooLong = errors.New("index: token exceeds the maximum token size")

var indexPool = sync.Pool{New: func() any { return new(Index) }}

// Build scans data in parallel and returns its structural index.
// Errors are either ErrStructure (fall back to serial), ErrTokenTooLong
// (hard failure, matches the serial scanner's cap) — both wrapped.
//
// Deprecated: stage 1 of the forced-only parallel engine, kept because
// benchmark/seams.go:243 times it; it goes with that engine.
func Build(data []byte, opts Options) (*Index, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunk := opts.ChunkSize
	if chunk <= 0 {
		chunk = len(data) / (workers * 4)
		const minChunk, maxChunk = 64 << 10, 8 << 20
		if chunk < minChunk {
			chunk = minChunk
		}
		if chunk > maxChunk {
			chunk = maxChunk
		}
	}
	n := (len(data) + chunk - 1) / chunk
	if n < 1 {
		n = 1
	}
	if opts.Collapse <= 0 {
		opts.Collapse = 2 * FragTarget(len(data), workers)
	}

	ix := indexPool.Get().(*Index)
	ix.Entries = ix.Entries[:0]
	ix.RootStart, ix.RootEnd = -1, -1
	if cap(ix.chunks) < n {
		ix.chunks = make([][]Entry, n)
	}
	chunks := ix.chunks[:n]
	// anoms[i] is the offset where chunk i's worker stopped classifying
	// (an unclassifiable '<'), or -1.
	anoms := make([]int, n)

	// Stage 1a: speculative parallel chunk scan.
	var wg sync.WaitGroup
	conc := workers
	if conc > n {
		conc = n
	}
	var next int32
	nextMu := sync.Mutex{}
	take := func() int {
		nextMu.Lock()
		i := int(next)
		next++
		nextMu.Unlock()
		return i
	}
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci := take()
				if ci >= n {
					return
				}
				from := ci * chunk
				to := from + chunk
				if to > len(data) {
					to = len(data)
				}
				chunks[ci], anoms[ci] = scanChunk(data, from, to, chunks[ci][:0], opts)
			}
		}()
	}
	wg.Wait()

	// Stage 1b: sequential stitch — validate speculative entries by
	// reaching them through verified ground, repair desynchronised
	// regions, and prefix-sum depths.
	if err := ix.stitch(data, chunks, anoms, chunk, opts); err != nil {
		ix.Release()
		return nil, err
	}
	return ix, nil
}

// Release returns the index's buffers to the pool. The index and its
// entries must not be used afterwards.
func (ix *Index) Release() {
	ix.RootStart, ix.RootEnd = -1, -1
	indexPool.Put(ix)
}

// scanChunk finds and classifies structural '<' positions in [from,to),
// assuming from lies in element content. Constructs may extend past to;
// classification reads as far as it needs. Returns the entries and the
// offset of the first '<' it could not classify (-1 when none).
//
// An element whose start and end tags both turn up here is folded into
// one Element entry when it is no larger than opts.Collapse. That keeps
// the stitch's invariant as it is: the entries inside were reached from
// the element's own '<' by the same context-free scan the stitch would
// run, so the folded entry is valid exactly when the cursor arrives at
// its Off through verified text. An element holding a token longer than
// MaxTokenSize stays unfolded, so the stitch still meets that token and
// reports it.
func scanChunk(data []byte, from, to int, out []Entry, opts Options) ([]Entry, int) {
	var open []int // positions in out of the Starts not yet closed
	// long is the offset of the last construct that is longer than
	// MaxTokenSize or ends a text run that is.
	long := -1
	pos := from
	for pos < to {
		j := bytes.IndexByte(data[pos:to], '<')
		if j < 0 {
			break
		}
		off := pos + j
		// Most tags fold away, so symbols are resolved once folding is
		// done (stitch).
		e, st := entryAt(data, off)
		if st != OK {
			return out, off
		}
		if opts.MaxTokenSize > 0 && (j > opts.MaxTokenSize || e.End-off > opts.MaxTokenSize) {
			long = off
		}
		pos = e.End
		switch e.Kind {
		case Start:
			open = append(open, len(out))
		case End:
			if len(open) == 0 {
				break // closes an element opened before this chunk
			}
			s := open[len(open)-1]
			open = open[:len(open)-1]
			if st := &out[s]; e.End-st.Off <= opts.Collapse && st.Off > long {
				st.Kind, st.End = Element, e.End
				out = out[:s+1]
				continue
			}
		}
		out = append(out, e)
	}
	return out, -1
}

// stitch merges the per-chunk speculative entries into ix.Entries,
// dropping entries invalidated by constructs that span chunk cuts,
// rescanning desynchronised regions, assigning absolute depths, and
// locating the root element.
func (ix *Index) stitch(data []byte, chunks [][]Entry, anoms []int, chunkSize int, opts Options) error {
	maxTok := opts.MaxTokenSize
	cursor := 0
	runStart := 0 // end of the last accepted construct: text-run origin
	depth := int32(0)
	rootClosed := false

	// Every entry that survives is appended once; the chunk lists bound
	// the count except where a desynchronised region is rescanned.
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	if cap(ix.Entries) < total {
		ix.Entries = make([]Entry, 0, total)
	}
	ix.open = ix.open[:0]

	accept := func(e Entry) error {
		if maxTok > 0 {
			if gap := e.Off - runStart; gap > maxTok {
				return fmt.Errorf("%w (%d-byte text run)", ErrTokenTooLong, gap)
			}
			// A folded element is not a token; its worker checked inside.
			if ln := e.End - e.Off; ln > maxTok && e.Kind != Element {
				return fmt.Errorf("%w (%d-byte construct)", ErrTokenTooLong, ln)
			}
		}
		runStart = e.End
		e.Depth = depth
		switch e.Kind {
		case Start:
			if depth == 0 {
				if ix.RootStart >= 0 {
					return fmt.Errorf("%w: content after the root element", ErrStructure)
				}
				ix.RootStart = len(ix.Entries)
			}
			depth++
			ix.open = append(ix.open, int32(len(ix.Entries)))
		case StartEmpty:
			if depth == 0 {
				// An empty-element root (or a second root): tiny content
				// either way, not worth fragmenting.
				return fmt.Errorf("%w: empty-element tag at depth 0", ErrStructure)
			}
		case End:
			if depth == 0 {
				return fmt.Errorf("%w: unbalanced end tag", ErrStructure)
			}
			// An End records the depth of the element it closes, so an
			// element's Start and End entries carry the same Depth.
			depth--
			e.Depth = depth
			s := ix.open[len(ix.open)-1]
			ix.open = ix.open[:len(ix.open)-1]
			st := &ix.Entries[s]
			if depth == 0 {
				ix.RootEnd = len(ix.Entries)
				rootClosed = true
			} else if e.End-st.Off <= opts.Collapse {
				// Everything after st is inside it, and folded already.
				st.Kind, st.End = Element, e.End
				ix.Entries = ix.Entries[:s+1]
				return nil
			}
			st.Match = int32(len(ix.Entries))
		}
		ix.Entries = append(ix.Entries, e)
		return nil
	}

	for ci := range chunks {
		from := ci * chunkSize
		to := from + chunkSize
		if to > len(data) {
			to = len(data)
		}
		ents := chunks[ci]
		stop := to
		if anoms[ci] >= 0 {
			stop = anoms[ci]
		}
		i := 0
		for {
			for i < len(ents) && ents[i].Off < cursor {
				i++
			}
			if cursor >= to {
				break
			}
			// Is the cursor on ground this worker verified as text (no
			// '<' between the previous construct end and the next entry)?
			gapStart := from
			if i > 0 {
				gapStart = ents[i-1].End
			}
			if i < len(ents) {
				// A worker does not know depth: an element it folded at
				// document level is the root, whose tags the planner needs,
				// so that one is rescanned below.
				if cursor >= gapStart && (depth > 0 || ents[i].Kind != Element) {
					if err := accept(ents[i]); err != nil {
						return err
					}
					cursor = ents[i].End
					i++
					continue
				}
			} else if cursor >= gapStart && cursor <= stop {
				if stop == to {
					cursor = to
					break // verified text to the chunk edge
				}
				// Verified up to the worker's anomaly: fall through to
				// rescan at it (classification will fail the same way).
				cursor = stop
			}
			// Desynchronised (or at an anomaly): rescan serially until the
			// cursor lands back on verified ground.
			j := bytes.IndexByte(data[cursor:], '<')
			if j < 0 {
				cursor = len(data)
				break
			}
			e, st := entryAt(data, cursor+j)
			if st != OK {
				return fmt.Errorf("%w: unclassifiable construct at byte %d", ErrStructure, cursor+j)
			}
			if err := accept(e); err != nil {
				return err
			}
			cursor = e.End
		}
	}
	if maxTok > 0 && len(data)-runStart > maxTok {
		return fmt.Errorf("%w (%d-byte text run)", ErrTokenTooLong, len(data)-runStart)
	}
	if depth != 0 {
		return fmt.Errorf("%w: %d unterminated element(s)", ErrStructure, depth)
	}
	if ix.RootStart < 0 || !rootClosed {
		return fmt.Errorf("%w: no root element", ErrStructure)
	}
	// The lookup runs once per cut point, not once per tag.
	for i := range ix.Entries {
		ix.Entries[i].resolveSym(data, opts.Lookup)
	}
	return nil
}
