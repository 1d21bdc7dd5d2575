// Package xmlproj implements type-based XML projection (Benzaken,
// Castagna, Colazzo, Nguyên — VLDB 2006): given a DTD and one or more
// XPath 1.0 / XQuery-FLWR queries, it statically infers a *type
// projector* — a set of DTD names — such that pruning every node whose
// name is outside the projector does not change the queries' results.
// Pruning is a single one-pass traversal with constant memory, so large
// documents can be cut down to their query-relevant core before a
// main-memory engine ever materialises them.
//
// Typical use:
//
//	d, _ := xmlproj.ParseDTDFile("auction.dtd", "site")
//	q, _ := xmlproj.CompileXPath(`//person[profile/@income]/name`)
//	p, _ := d.Infer(xmlproj.Materialized, q)
//	p.PruneStream(out, in)     // stream the pruned document
//
// The package also ships the in-memory XPath/XQuery engine used by the
// reproduction benchmarks (Evaluate), validation, and the XMark document
// generator (under internal/, driven by cmd/xmarkgen).
//
// Defended by: every workload, e.g. `answer_projected`, `cli_large`, `serve_cold` (§6).
package xmlproj

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"

	"xmlproj/internal/core"
	"xmlproj/internal/dataguide"
	"xmlproj/internal/dtd"
	"xmlproj/internal/prune"
	"xmlproj/internal/rescache"
	"xmlproj/internal/scan"
	"xmlproj/internal/tree"
	"xmlproj/internal/xpath"
	"xmlproj/internal/xpathl"
	"xmlproj/internal/xquery"
	"xmlproj/internal/xsd"
)

// DTD is a parsed Document Type Definition, viewed as a local tree
// grammar (§2.2 of the paper).
type DTD struct {
	d *dtd.DTD
}

// ParseDTDString reads DTD declarations, expanding parameter entities
// and conditional sections first (so real-world DTDs like XHTML parse).
// rootTag names the document root element; if empty, the first declared
// element is the root.
func ParseDTDString(src, rootTag string) (*DTD, error) {
	d, err := dtd.ParseWithEntities(src, rootTag)
	if err != nil {
		return nil, err
	}
	return &DTD{d: d}, nil
}

// InferDTD builds a dataguide — a structural summary in local-tree-grammar
// form — from a document that has no schema (the paper's §7 extension).
// The document is valid against the result by construction, so projectors
// inferred from it are sound for pruning that document (and any document
// with the same structural summary).
func InferDTD(doc *Document) (*DTD, error) {
	d, err := dataguide.FromDocument(doc.t)
	if err != nil {
		return nil, err
	}
	return &DTD{d: d}, nil
}

// ParseDTDFile is ParseDTDString over a file.
func ParseDTDFile(path, rootTag string) (*DTD, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseDTDString(string(src), rootTag)
}

// ParseSchemaFile loads the schema a tool's -dtd or -schema flag names:
// a DTD, or an XML Schema when the file name ends in .xsd. A schema (a
// practical subset: sequence/choice/all, occurrence bounds, attributes,
// mixed content, named and anonymous complex types) is lowered to a
// local tree grammar, per the paper's footnote 1; local elements whose
// types differ across contexts are merged soundly.
func ParseSchemaFile(path, rootTag string) (*DTD, error) {
	if !strings.HasSuffix(path, ".xsd") {
		return ParseDTDFile(path, rootTag)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := xsd.Parse(f, rootTag)
	if err != nil {
		return nil, err
	}
	return &DTD{d: d}, nil
}

// Root returns the root element tag.
func (d *DTD) Root() string { return string(d.d.Root) }

// IsStarGuarded, IsRecursive and IsParentUnambiguous report the Def. 4.3
// grammar properties. On *-guarded, non-recursive, parent-unambiguous
// DTDs the inferred projectors are not only sound but complete for
// strongly-specified queries (Thms. 4.4, 4.7).
func (d *DTD) IsStarGuarded() bool       { return d.d.IsStarGuarded() }
func (d *DTD) IsRecursive() bool         { return d.d.IsRecursive() }
func (d *DTD) IsParentUnambiguous() bool { return d.d.IsParentUnambiguous() }

// Grammar renders the DTD in the paper's edge notation (for inspection).
func (d *DTD) Grammar() string { return d.d.String() }

// QueryKind discriminates compiled query languages.
type QueryKind uint8

const (
	// XPathQuery is an XPath 1.0 expression.
	XPathQuery QueryKind = iota
	// XQueryQuery is a query in the FLWR core of XQuery.
	XQueryQuery
)

// Query is a compiled query together with its XPathℓ data-need paths
// (§3.3/§5), ready for projector inference.
type Query struct {
	Kind   QueryKind
	source string
	xp     xpath.Expr
	xq     xquery.Query
	paths  []*xpathl.Path
}

// CompileXPath parses an XPath 1.0 query and computes its XPathℓ
// approximation.
func CompileXPath(src string) (*Query, error) {
	e, err := xpath.Parse(src)
	if err != nil {
		return nil, err
	}
	paths, err := xpathl.FromQuery(e)
	if err != nil {
		return nil, err
	}
	return &Query{Kind: XPathQuery, source: src, xp: e, paths: paths}, nil
}

// compileXQuery parses a FLWR-core XQuery query, applies the §5
// rewriting heuristic, and extracts its data-need paths (Fig. 3).
func compileXQuery(src string) (*Query, error) {
	q, err := xquery.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Query{
		Kind:   XQueryQuery,
		source: src,
		xq:     q,
		paths:  xquery.Extract(xquery.RewriteForIf(q)),
	}, nil
}

// Compile parses src as XPath first and falls back to XQuery, so callers
// can accept either language. When both parses fail, the XPath diagnostic
// is reported if the source starts like a path expression (the XQuery
// fallback would otherwise shadow it with a less useful error); in the
// ambiguous case both diagnostics are combined.
func Compile(src string) (*Query, error) {
	q, xpErr := CompileXPath(src)
	if xpErr == nil {
		return q, nil
	}
	q, xqErr := compileXQuery(src)
	if xqErr == nil {
		return q, nil
	}
	if startsLikePath(src) {
		return nil, xpErr
	}
	return nil, fmt.Errorf("xmlproj: query is neither XPath (%v) nor XQuery (%v)", xpErr, xqErr)
}

// startsLikePath reports whether src begins the way a location path does —
// an abbreviated step or a name the XPath parser reads as an axis before
// "::" — rather than a FLWR keyword, so Compile can pick the more useful
// diagnostic.
func startsLikePath(src string) bool {
	s := strings.TrimSpace(src)
	for _, p := range []string{"/", ".", "@", "*", "("} {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	name, _, found := strings.Cut(s, "::")
	if !found {
		return false
	}
	_, axis := xpath.AxisByName(strings.TrimSpace(name))
	return axis
}

// Source returns the original query text.
func (q *Query) Source() string { return q.source }

// DataNeeds renders the extracted XPathℓ paths (one per line), mainly
// for inspection and tests.
func (q *Query) DataNeeds() string {
	parts := make([]string, len(q.paths))
	for i, p := range q.paths {
		parts[i] = p.String()
	}
	return strings.Join(parts, "\n")
}

// Mode selects what the projector must preserve.
type Mode uint8

const (
	// NodesOnly preserves the identity of the result node-set (the exact
	// statement of Thm. 4.5); result subtrees may still be pruned.
	NodesOnly Mode = iota
	// Materialized additionally keeps the full subtree (and attributes)
	// of every result node, so results can be serialised (the remark
	// after Thm. 4.5). XQuery queries always use Materialized needs:
	// Fig. 3 ends every returned path in descendant-or-self::node(), and
	// inference keeps the attributes of every subtree so marked.
	Materialized
)

// Projector is an inferred type projector π (Def. 2.6) for a DTD. The
// decision table the pruners walk and the result-cache fingerprints are
// computed at most once per projector and kept on pr, which is also what
// Engine.InferCached caches: every wrapper of one cached projector
// shares them.
type Projector struct {
	d  *dtd.DTD
	pr *core.Projector
}

// Infer computes the union projector for a bunch of queries (§5:
// projectors are closed under union, so one pruned document serves all
// the queries).
func (d *DTD) Infer(mode Mode, queries ...*Query) (*Projector, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("xmlproj: no queries to infer from")
	}
	var out *core.Projector
	for _, q := range queries {
		var pr *core.Projector
		var err error
		if mode == Materialized && q.Kind == XPathQuery {
			pr, err = core.InferMaterialized(d.d, q.paths)
		} else {
			pr, err = core.Infer(d.d, q.paths)
		}
		if err != nil {
			return nil, fmt.Errorf("xmlproj: %s: %w", q.source, err)
		}
		if out == nil {
			out = pr
		} else {
			out.Union(pr)
		}
	}
	return &Projector{d: d.d, pr: out}, nil
}

// Names returns the projector's names, sorted. Text names carry a
// "#text" suffix and attribute names an "@attr" suffix.
func (p *Projector) Names() []string { return p.pr.Names() }

// Has reports whether the projector keeps the given name.
func (p *Projector) Has(name string) bool { return p.pr.Has(dtd.Name(name)) }

// KeepRatio returns the fraction of root-reachable names kept — a static
// selectivity indicator.
func (p *Projector) KeepRatio() float64 { return p.pr.KeepRatio() }

// KeepsAll reports whether the projector keeps every name a valid
// document can contain — π knows when it is useless: pruning with it
// only copies the document, so a caller that already holds the input
// can use it as it is (//node() and /site//node() infer such a π).
func (p *Projector) KeepsAll() bool { return p.pr.KeepsAll() }

func (p *Projector) String() string { return p.pr.String() }

// MarshalText serialises the projector as newline-separated names, so an
// inferred projector can be stored and reused (e.g. computed once by an
// administrator, applied by loaders).
func (p *Projector) MarshalText() ([]byte, error) {
	return []byte(strings.Join(p.Names(), "\n")), nil
}

// LoadProjector rebuilds a projector for d from a MarshalText rendering.
// A projector is a set of the grammar's names (π ⊆ DN(E)), only
// meaningful against the DTD it was inferred for: every name must be one
// the grammar defines — an element, its elem#text, a declared elem@attr —
// and any other is rejected. The root is always kept.
func (d *DTD) LoadProjector(text []byte) (*Projector, error) {
	syms := d.d.Symbols()
	row := syms.NewRow(syms.Root())
	for _, f := range strings.Fields(string(text)) {
		sym, ok := syms.Sym(dtd.Name(f))
		if !ok {
			return nil, fmt.Errorf("xmlproj: projector name %q not defined by this DTD", f)
		}
		row.Add(sym)
	}
	return &Projector{d: d.d, pr: &core.Projector{D: d.d, Row: row}}, nil
}

// Document is a parsed XML document.
type Document struct {
	t *tree.Document
}

// ParseXMLString parses an XML document.
func ParseXMLString(src string) (*Document, error) {
	return wrapDoc(tree.ParseString(src))
}

// ParseXMLBytes is ParseXMLString over bytes already in memory. The
// document keeps no reference to src.
func ParseXMLBytes(src []byte) (*Document, error) {
	return wrapDoc(tree.ParseBytes(src))
}

func wrapDoc(t *tree.Document, err error) (*Document, error) {
	if err != nil {
		return nil, err
	}
	return &Document{t: t}, nil
}

// XML serialises the document.
func (doc *Document) XML() string { return doc.t.XML() }

// Size returns the document's serialised size in bytes.
func (doc *Document) Size() int64 { return doc.t.SerializedSize() }

// Validate checks the document read from src against the DTD
// (Def. 2.4) and for well-formedness, in one pass with constant memory.
// It is the validating prune with π = every name of the grammar, its
// output discarded: with that π no subtree is skipped, so every content
// model, attribute and the root are checked. A validating prune with a
// narrower π checks only what π keeps (StreamOptions.Validate).
func (d *DTD) Validate(src io.Reader) error {
	syms := d.d.Symbols()
	all := syms.Text.Clone()
	all.Or(syms.Attr)
	for e := range int32(syms.Len()) {
		all.Add(e)
	}
	_, err := prune.Stream(io.Discard, src, d.d, nil, prune.StreamOptions{Validate: true, Projection: syms.Project(all)})
	if err != nil {
		// The verdict is the document's, not a prune's: its "prune: "
		// becomes "validate: ".
		return fmt.Errorf("validate: %w", errors.Unwrap(err))
	}
	return nil
}

// PruneStats reports what a streaming prune did: elements and logical
// text nodes read, written and skipped inside pruned subtrees, output
// bytes, and the deepest open-element stack seen (the pruner's memory is
// proportional to it, not to the document size). Text inside pruned
// subtrees is counted (TextIn, TextSkipped) only by a validating prune.
type PruneStats = prune.Stats

// PruneStream prunes the document read from src to dst in a single
// bufferless pass with constant memory (§6). Subtrees of pruned elements
// are skipped without being materialised. It is PruneStreamOpts with the
// zero options; StreamOptions.Validate fuses DTD validation, over what
// the projector keeps, with the prune.
func (p *Projector) PruneStream(dst io.Writer, src io.Reader) (PruneStats, error) {
	return p.PruneStreamOpts(dst, src, StreamOptions{})
}

// PruneEngine names the tokenizer behind a streaming prune: always the
// byte-level serial scanner, whose String is "scanner". Input must be
// UTF-8 — UTF-16/32 is rejected with an error that says so.
//
// Deprecated: kept only because benchmark/seams.go:313–323 names it.
type PruneEngine = prune.Engine

// PruneAuto is PruneEngine's zero value.
//
// Deprecated: kept only because benchmark/seams.go:321 names it.
const PruneAuto = prune.EngineAuto

// StreamOptions configures PruneStreamOpts. The zero value matches
// PruneStream: no validation, default limits.
type StreamOptions struct {
	// Validate fuses DTD validation with the prune, and checks the whole
	// document for well-formedness. The DTD checks cover what π keeps:
	// the root, each kept element's attributes and content model, and
	// each of its children's names. A subtree π discards gets
	// well-formedness only, so a document can pass a validating prune and
	// be invalid; whole-document validity is DTD.Validate. Without
	// Validate the prune guarantees
	// well-formedness where the projector keeps and structural balance
	// where it discards: inside a discarded subtree unterminated
	// constructs, truncated input, a '<' inside a tag and unbalanced or
	// wrongly closed subtrees are still errors, while names, attribute
	// syntax, entities, character ranges, "]]>" in text, "--" in comments
	// and inner end-tag names are not looked at, and text in there is not
	// counted in PruneStats.TextIn / TextSkipped. The paper assumes valid
	// input (Thm. 4.5); set Validate for input that may not be.
	Validate bool
	// MaxTokenSize bounds the scanner's token buffer; a single token
	// larger than this fails the prune instead of growing memory without
	// bound. Zero means the scanner default (8 MiB).
	MaxTokenSize int
	// IntraWorkers is ignored: a prune is one serial pass.
	//
	// Deprecated: kept only because benchmark/seams.go:315 sets it.
	IntraWorkers int
	// Context, when non-nil, aborts the prune when cancelled: the source
	// is checked before every read and the prune returns the context
	// error (wrapped), recognisable with errors.Is.
	Context context.Context
	// Chosen, when non-nil, receives the engine that ran: the scanner.
	//
	// Deprecated: kept only because benchmark/seams.go:315–323 reads it.
	Chosen *PruneEngine
}

// PruneStreamOpts is PruneStream with per-call options: validation,
// token-size limits and context cancellation — what a long-lived server
// needs to run untrusted streams through the pruner safely.
func (p *Projector) PruneStreamOpts(dst io.Writer, src io.Reader, opts StreamOptions) (PruneStats, error) {
	return prune.Stream(dst, src, p.d, nil, p.streamOpts(opts))
}

// LoadProjected prunes the document read from src and loads what the
// projector keeps in the same pass (§6: pruning "fused with parsing"):
// the kept nodes go straight into the document's table, so the input is
// never resident and the pruned document is neither rendered nor
// tokenised again. The document, verdict and error are those of
// ParseXMLBytes on what PruneStreamOpts writes, at both levels of
// checking, and the stats are PruneStreamOpts's: BytesOut is the length
// it would have written. A reader holding its input in memory (an
// InputBytes() []byte method, as an mmap'd file has) is pruned in place;
// any other is read through the scanner's buffer, so a single token
// longer than MaxTokenSize fails the load.
func (p *Projector) LoadProjected(src io.Reader, opts StreamOptions) (*Document, PruneStats, error) {
	t, st, err := prune.Load(src, p.d, nil, p.streamOpts(opts))
	if err != nil {
		return nil, st, err
	}
	return &Document{t: t}, st, nil
}

// PruneResult is the span-gather outcome of PruneGather: the pruned
// output described as spans over the caller's input plus a small
// buffer of synthesized bytes. Nothing is copied until WriteTo, which
// makes one Write per span — thousands of small ones on a selective
// prune — so hand it a buffered writer (an http.ResponseWriter is one; an
// *os.File is a system call per span). The input slice must stay alive
// and unmodified until Close.
//
// Release contract: a PruneResult may wrap pooled gather state, so the
// owner must call Close exactly when done with it — on every path,
// including error paths after a partial WriteTo. A result that is never
// Closed is not unsafe (the garbage collector reclaims it) but its
// buffers leave the pool, costing fresh allocations on later prunes.
// Close is guarded by an atomic flag on the result itself: calling it
// again is a no-op even after the pool has reissued the underlying
// gather state to another prune, so a double-Close can never release a
// different owner's buffers. After Close, accessor methods are safe but
// degenerate — WriteTo returns ErrResultReleased, Bytes returns nil and
// the size accessors return zero — rather than touching recycled state.
// A PruneResult is single-owner: the struct itself is not meant for
// concurrent use (share the written output instead).
//
// When a result is served by an Engine's result cache it is backed by
// an immutable cached copy instead of pooled spans; the same contract
// applies, and Close simply drops the reference (cached bytes are owned
// by the cache, never returned to a pool).
type PruneResult struct {
	// Stats reports what the prune did; BytesOut is the rendered size.
	Stats    PruneStats
	sl       *scan.SpanList
	cached   *rescache.Entry
	released atomic.Bool
}

// ErrResultReleased is returned by PruneResult.WriteTo after Close.
var ErrResultReleased = errors.New("xmlproj: PruneResult used after Close")

// WriteTo renders the pruned document to w (io.WriterTo), one Write per
// segment: w should buffer.
func (r *PruneResult) WriteTo(w io.Writer) (int64, error) {
	if r.released.Load() {
		return 0, ErrResultReleased
	}
	if r.cached != nil {
		return r.cached.WriteTo(w)
	}
	return r.sl.WriteTo(w)
}

// Len is the rendered output size in bytes (0 after Close).
func (r *PruneResult) Len() int64 {
	if r.released.Load() {
		return 0
	}
	if r.cached != nil {
		return r.cached.Len()
	}
	return r.sl.Len()
}

// Close releases the result's internal state for reuse. Safe to call
// more than once (see the release contract above); the result must not
// be used afterwards.
func (r *PruneResult) Close() error {
	if !r.released.CompareAndSwap(false, true) {
		return nil
	}
	sl := r.sl
	r.sl, r.cached = nil, nil
	if sl != nil {
		return sl.Close()
	}
	return nil
}

// PruneGather prunes in-memory input without rendering it: output is
// recorded as a gather list over data, so nothing is copied until the
// result is flushed. Rendered output is byte-identical to PruneStream.
// The caller must Close the result.
func (p *Projector) PruneGather(data []byte, opts StreamOptions) (*PruneResult, error) {
	sl, st, err := prune.StreamGather(data, p.d, nil, p.streamOpts(opts))
	if err != nil {
		return nil, err
	}
	return &PruneResult{Stats: st, sl: sl}, nil
}

// streamOpts converts public stream options, adding p's compiled table.
func (p *Projector) streamOpts(opts StreamOptions) prune.StreamOptions {
	return prune.StreamOptions{
		Validate:     opts.Validate,
		MaxTokenSize: opts.MaxTokenSize,
		Projection:   p.pr.Compiled(),
		Ctx:          opts.Context,
		Chosen:       opts.Chosen,
	}
}

// Result is the outcome of evaluating a query.
type Result struct {
	// Count is the number of items (nodes or atomic values) returned.
	Count int
	// Serialized is the result rendered as text: node results serialised
	// as XML, atomics printed, items separated by newlines.
	Serialized string
}

// Evaluate runs the query on a document with the repository's in-memory
// engine (the stand-in for Galax in the paper's experiments).
func (q *Query) Evaluate(doc *Document) (Result, error) {
	switch q.Kind {
	case XPathQuery:
		v, err := xpath.NewEvaluator(doc.t).Eval(q.xp)
		if err != nil {
			return Result{}, err
		}
		if ns, ok := v.(xpath.NodeSet); ok {
			return Result{Count: len(ns), Serialized: xquery.SerializeNodes(ns)}, nil
		}
		return Result{Count: 1, Serialized: xpath.ToString(v)}, nil
	default:
		s, err := xquery.NewEvaluator(doc.t).Eval(q.xq)
		if err != nil {
			return Result{}, err
		}
		return Result{Count: len(s), Serialized: xquery.Serialize(s)}, nil
	}
}
