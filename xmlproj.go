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
	"xmlproj/internal/tree"
	"xmlproj/internal/validate"
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

// ParseDTD reads DTD declarations from r, expanding parameter entities
// and conditional sections first (so real-world DTDs like XHTML parse).
// rootTag names the document root element; if empty, the first declared
// element is the root.
func ParseDTD(r io.Reader, rootTag string) (*DTD, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseDTDString(string(src), rootTag)
}

// ParseDTDString is ParseDTD over a string.
func ParseDTDString(src, rootTag string) (*DTD, error) {
	d, err := dtd.ParseWithEntities(src, rootTag)
	if err != nil {
		return nil, err
	}
	return &DTD{d: d}, nil
}

// ParseXSD reads an XML Schema (a practical subset: sequence/choice/all,
// occurrence bounds, attributes, mixed content, named and anonymous
// complex types) and lowers it to a local tree grammar, per the paper's
// footnote 1. Local elements whose types differ across contexts are
// merged soundly.
func ParseXSD(r io.Reader, rootTag string) (*DTD, error) {
	d, err := xsd.Parse(r, rootTag)
	if err != nil {
		return nil, err
	}
	return &DTD{d: d}, nil
}

// ParseXSDString is ParseXSD over a string.
func ParseXSDString(src, rootTag string) (*DTD, error) {
	d, err := xsd.ParseString(src, rootTag)
	if err != nil {
		return nil, err
	}
	return &DTD{d: d}, nil
}

// ParseXSDFile is ParseXSD over a file.
func ParseXSDFile(path, rootTag string) (*DTD, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseXSD(f, rootTag)
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

// ParseDTDFromDoc extracts and parses the internal DTD subset of a
// document's <!DOCTYPE root [ … ]> declaration.
func ParseDTDFromDoc(doc string) (*DTD, error) {
	root, subset, ok := dtd.InternalSubset(doc)
	if !ok {
		return nil, fmt.Errorf("xmlproj: document has no internal DTD subset")
	}
	return ParseDTDString(subset, root)
}

// ParseDTDFile is ParseDTD over a file.
func ParseDTDFile(path, rootTag string) (*DTD, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseDTD(f, rootTag)
}

// ParseSchemaFile loads the schema a tool's -dtd or -schema flag names:
// an XML Schema when the file name ends in .xsd (lowered to a local tree
// grammar, the paper's footnote 1), a DTD otherwise.
func ParseSchemaFile(path, rootTag string) (*DTD, error) {
	if strings.HasSuffix(path, ".xsd") {
		return ParseXSDFile(path, rootTag)
	}
	return ParseDTDFile(path, rootTag)
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

// CompileXQuery parses a FLWR-core XQuery query, applies the §5
// rewriting heuristic, and extracts its data-need paths (Fig. 3).
func CompileXQuery(src string) (*Query, error) {
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
	q, xqErr := CompileXQuery(src)
	if xqErr == nil {
		return q, nil
	}
	if startsLikePath(src) {
		return nil, xpErr
	}
	return nil, fmt.Errorf("xmlproj: query is neither XPath (%v) nor XQuery (%v)", xpErr, xqErr)
}

// startsLikePath reports whether src begins the way a location path does —
// an axis, an abbreviated step, or a name step — rather than a FLWR
// keyword, so Compile can pick the more useful diagnostic.
func startsLikePath(src string) bool {
	s := strings.TrimSpace(src)
	for _, p := range []string{"/", ".", "@", "*", "(", "child::", "descendant::", "attribute::", "self::", "parent::", "ancestor::"} {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
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

// StaticType returns the set of DTD names the query's results can have —
// the τ of the paper's Fig. 1 type system, computed on the query's XPathℓ
// approximation (Thm. 4.4: every result node's name is in the set).
func (q *Query) StaticType(d *DTD) []string {
	c := core.NewChecker(d.d)
	syms := d.d.Symbols()
	tau := syms.NewRow()
	for _, p := range q.paths {
		tau.Or(c.Type(p))
	}
	return sortedNames(syms.NameSet(tau))
}

// sortedNames renders a name set as sorted strings.
func sortedNames(names dtd.NameSet) []string {
	ns := names.Sorted()
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = string(n)
	}
	return out
}

// CanMatch reports whether the query can return anything at all on
// documents valid against d — the §4.1 emptiness diagnostic (property
// (2)): on *-guarded non-recursive DTDs an empty static type means the
// query is empty on every instance; a typo'd element name is caught
// before any document is read.
func (q *Query) CanMatch(d *DTD) bool {
	return len(q.StaticType(d)) > 0
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
	// their extraction already marks returned paths.
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
func (p *Projector) Names() []string { return sortedNames(p.pr.Names) }

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
// Unknown names are rejected — a projector is only meaningful against the
// DTD it was inferred for: every name must be one of the grammar's (an
// element, its elem#text, a declared elem@attr), with one exception,
// elem@attr for an attribute the DTD does not declare on a declared
// element, which keeps matching document attributes of that name.
func (d *DTD) LoadProjector(text []byte) (*Projector, error) {
	syms := d.d.Symbols()
	names := dtd.NameSet{}
	for _, f := range strings.Fields(string(text)) {
		if _, ok := syms.Sym(dtd.Name(f)); !ok {
			elem, _, isAttr := strings.Cut(f, "@")
			if sym, ok := syms.Sym(dtd.Name(elem)); !isAttr || !ok || int(sym) >= syms.Len() {
				return nil, fmt.Errorf("xmlproj: projector name %q not defined by this DTD", f)
			}
		}
		names.Add(dtd.Name(f))
	}
	names.Add(d.d.Root)
	return &Projector{d: d.d, pr: &core.Projector{D: d.d, Names: names}}, nil
}

// Document is a parsed XML document.
type Document struct {
	t *tree.Document
}

// ParseXML reads r to the end and parses what it read: a Document holds
// the whole input anyway, so nothing is gained by parsing as it arrives.
func ParseXML(r io.Reader) (*Document, error) {
	return wrapDoc(tree.Parse(r))
}

// ParseXMLString is ParseXML over a string.
func ParseXMLString(src string) (*Document, error) {
	return wrapDoc(tree.ParseString(src))
}

// ParseXMLBytes is ParseXML over bytes already in memory. The document
// keeps no reference to src.
func ParseXMLBytes(src []byte) (*Document, error) {
	return wrapDoc(tree.ParseBytes(src))
}

// ParseXMLFile is ParseXML over a file, read in one go.
func ParseXMLFile(path string) (*Document, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseXMLBytes(src)
}

func wrapDoc(t *tree.Document, err error) (*Document, error) {
	if err != nil {
		return nil, err
	}
	return &Document{t: t}, nil
}

// XML serialises the document.
func (doc *Document) XML() string { return doc.t.XML() }

// WriteXML serialises the document to w.
func (doc *Document) WriteXML(w io.Writer) error { return doc.t.WriteXML(w) }

// IndentedXML serialises the document with indentation for human
// consumption; mixed content stays on one line, so no significant
// whitespace is introduced.
func (doc *Document) IndentedXML() string { return doc.t.IndentedXML() }

// Size returns the document's serialised size in bytes.
func (doc *Document) Size() int64 { return doc.t.SerializedSize() }

// NumNodes returns the number of element and text nodes.
func (doc *Document) NumNodes() int { return doc.t.NumNodes() }

// Validate checks the document against the DTD (Def. 2.4).
func (d *DTD) Validate(doc *Document) error {
	return validate.Document(d.d, doc.t)
}

// ApplyDefaults fills in the DTD's declared attribute defaults on every
// element that omits them, as an XML processor does after validation. It
// returns the number of attributes added.
func (d *DTD) ApplyDefaults(doc *Document) int {
	return validate.ApplyDefaults(d.d, doc.t)
}

// Prune computes the π-projection of an in-memory document (Def. 2.7).
// The document must be valid w.r.t. the projector's DTD.
func (p *Projector) Prune(doc *Document) *Document {
	return &Document{t: prune.Tree(doc.t, p.pr.Compiled())}
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
// zero options; StreamOptions.Validate fuses DTD validation with the
// prune.
func (p *Projector) PruneStream(dst io.Writer, src io.Reader) (PruneStats, error) {
	return p.PruneStreamOpts(dst, src, StreamOptions{})
}

// PruneEngine names the tokenizer behind a streaming prune. The zero
// value auto-selects: for a validating prune with a worker budget of at
// least 4, the pipelined streaming parallel pruner for UTF-8 reader
// input (unknown sizes, or known sizes past a threshold) and the
// two-stage batch parallel pruner for large in-memory input; the
// byte-level serial scanner otherwise — without Validate it walks what
// it discards as fast as the parallel pruners index it.
// Input must be UTF-8 — UTF-16/32 is rejected with an error that says
// so. Every engine is the byte-level scanner; the encoding/xml pruner it
// replaced is a test oracle and cannot be selected. String returns the
// name servers and tools log.
type PruneEngine = prune.Engine

const (
	PruneAuto      = prune.EngineAuto
	PruneScanner   = prune.EngineScanner
	PruneParallel  = prune.EngineParallel
	PrunePipelined = prune.EnginePipelined
)

// StreamOptions configures PruneStreamOpts. The zero value matches
// PruneStream: no validation, auto-selected engine, default limits.
type StreamOptions struct {
	// Validate fuses DTD validation with the prune, and checks the whole
	// document for well-formedness. Without it the prune guarantees
	// well-formedness where the projector keeps and structural balance
	// where it discards: inside a discarded subtree unterminated
	// constructs, truncated input, a '<' inside a tag and unbalanced or
	// wrongly closed subtrees are still errors, while names, attribute
	// syntax, entities, character ranges, "]]>" in text, "--" in comments
	// and inner end-tag names are not looked at, and text in there is not
	// counted in PruneStats.TextIn / TextSkipped. The paper assumes valid
	// input (Thm. 4.5); set Validate for input that may not be.
	Validate bool
	// Engine forces a tokenizer; zero auto-selects.
	Engine PruneEngine
	// MaxTokenSize bounds the scanner's token buffer; a single token
	// larger than this fails the prune instead of growing memory without
	// bound. Zero means the scanner default (8 MiB).
	MaxTokenSize int
	// IntraWorkers bounds intra-document parallel pruning (0 means
	// GOMAXPROCS; below 4, auto-selection keeps the prune serial).
	IntraWorkers int
	// Context, when non-nil, aborts the prune when cancelled: the source
	// is checked before every read and the prune returns the context
	// error (wrapped), recognisable with errors.Is.
	Context context.Context
	// Detail, when non-nil, receives the per-stage timings of a parallel
	// prune (Workers == 0 means the prune ran serially).
	Detail *ParallelStages
	// Pipeline, when non-nil, receives the per-stage timings and peak
	// window residency of a pipelined prune (Windows == 0 means the
	// pipelined engine did not run).
	Pipeline *PipelineStages
	// Chosen, when non-nil, receives the engine that actually ran.
	Chosen *PruneEngine
}

// PruneStreamOpts is PruneStream with per-call options: validation,
// engine selection, token-size limits, worker budgets and context
// cancellation — what a long-lived server needs to run untrusted
// streams through the pruner safely.
func (p *Projector) PruneStreamOpts(dst io.Writer, src io.Reader, opts StreamOptions) (PruneStats, error) {
	return prune.Stream(dst, src, p.d, p.pr.Names, p.streamOpts(opts))
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
	g        *prune.Gather
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
	return r.g.WriteTo(w)
}

// Bytes materialises the pruned document in a fresh slice (nil after
// Close).
func (r *PruneResult) Bytes() []byte {
	if r.released.Load() {
		return nil
	}
	if r.cached != nil {
		return r.cached.AppendTo(nil)
	}
	return r.g.Bytes()
}

// Len is the rendered output size in bytes (0 after Close).
func (r *PruneResult) Len() int64 {
	if r.released.Load() {
		return 0
	}
	if r.cached != nil {
		return r.cached.Len()
	}
	return r.g.Len()
}

// RawBytes counts output bytes referenced in place from the input —
// bytes the prune never copied. A cache-served result reports 0: its
// bytes are a materialized copy, nothing aliases the caller's input.
func (r *PruneResult) RawBytes() int64 {
	if r.released.Load() || r.cached != nil {
		return 0
	}
	return r.g.RawBytes()
}

// Segments is the number of gather segments, which is WriteTo's number
// of Write calls; a cache-served result is one contiguous segment.
func (r *PruneResult) Segments() int {
	if r.released.Load() {
		return 0
	}
	if r.cached != nil {
		return 1
	}
	return r.g.Segments()
}

// Close releases the result's internal state for reuse. Safe to call
// more than once (see the release contract above); the result must not
// be used afterwards.
func (r *PruneResult) Close() error {
	if !r.released.CompareAndSwap(false, true) {
		return nil
	}
	g := r.g
	r.g, r.cached = nil, nil
	if g != nil {
		return g.Close()
	}
	return nil
}

// PruneGather prunes in-memory input without rendering it: output is
// recorded as a gather list over data, so nothing is copied until the
// result is flushed. Rendered output is byte-identical to PruneStream.
// The caller must Close the result.
func (p *Projector) PruneGather(data []byte, opts StreamOptions) (*PruneResult, error) {
	g, st, err := prune.StreamGather(data, p.d, p.pr.Names, p.streamOpts(opts))
	if err != nil {
		return nil, err
	}
	return &PruneResult{Stats: st, g: g}, nil
}

// MaxFusedProjectors is how many projectors one shared scan can fuse
// into a single decision table; PruneMultiGather shards larger sets
// into consecutive fused passes. Servers bounding request fan-out can
// use it as a natural limit.
const MaxFusedProjectors = dtd.MaxMultiProjections

// PruneMultiGather prunes in-memory input against every projector in ps
// with one shared scan: the projector set is fused into a per-symbol
// decision table and the scanner walks the document once, so a batch of
// N queries costs one tokenization instead of N. Every projector's
// rendered output and stats are identical to a serial PruneGather with
// that projector alone.
//
// Results align with ps. Verdicts are per projector: errs[j] non-nil
// means projector j's serial prune would have failed (results[j] is
// then nil); syntax and well-formedness errors fail every projector,
// exactly as they would fail every serial run. All projectors must
// stem from the same DTD. The caller must Close every non-nil result
// (see the PruneResult release contract); data must stay alive and
// unmodified until then.
//
// The members' compiled tables are the projectors' own (computed once
// each); the fused table is built per pass from them — ≈ 6 / 12 / 24 µs
// at N = 4 / 16 / 64 on the XMark DTD, less than a cache lookup keyed on
// the set cost.
func PruneMultiGather(ps []*Projector, data []byte, opts StreamOptions) ([]*PruneResult, []error) {
	results := make([]*PruneResult, len(ps))
	errs := make([]error, len(ps))
	if len(ps) == 0 {
		return results, errs
	}
	d := ps[0].d
	pis := make([]dtd.NameSet, len(ps))
	mopts := prune.MultiOptions{
		Validate: opts.Validate, MaxTokenSize: opts.MaxTokenSize, Ctx: opts.Context,
		Projections: make([]*dtd.Projection, len(ps)),
	}
	for j, p := range ps {
		if p.d != d {
			for i := range errs {
				errs[i] = fmt.Errorf("xmlproj: projector %d was inferred from a different DTD", j)
			}
			return results, errs
		}
		pis[j], mopts.Projections[j] = p.pr.Names, p.pr.Compiled()
	}
	gathers, stats, gerrs := prune.StreamMultiGather(data, d, pis, mopts)
	for j := range ps {
		if gerrs[j] != nil {
			errs[j] = gerrs[j]
			continue
		}
		results[j] = &PruneResult{Stats: stats[j], g: gathers[j]}
	}
	return results, errs
}

// streamOpts converts public stream options, adding p's compiled table.
func (p *Projector) streamOpts(opts StreamOptions) prune.StreamOptions {
	return prune.StreamOptions{
		Validate:        opts.Validate,
		Engine:          opts.Engine,
		MaxTokenSize:    opts.MaxTokenSize,
		Projection:      p.pr.Compiled(),
		ParallelWorkers: opts.IntraWorkers,
		Ctx:             opts.Context,
		Detail:          opts.Detail,
		Pipeline:        opts.Pipeline,
		Chosen:          opts.Chosen,
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
