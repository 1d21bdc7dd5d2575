package prune

// Several projectors over one in-memory document, one pass each. No
// product route reaches this file: for many queries the product infers
// one union projector (§5) and prunes once. StreamMultiGather is kept as
// the seam benchmark/seams.go times as scan.multi4_mb_s; it goes when
// that seam does.

import (
	"xmlproj/internal/dtd"
	"xmlproj/internal/scan"
)

// MultiOptions configures StreamMultiGather.
type MultiOptions struct {
	// Validate checks content models, attribute declarations and the
	// root element while pruning, and well-formedness everywhere
	// (StreamOptions.Validate), each projector's pass on its own.
	Validate bool
	// Projections, when non-nil, holds the compiled form of each π
	// (aligned with the pis argument, which is read only where an entry
	// is nil), letting batch callers compile once per (DTD, π) pair.
	Projections []*dtd.Projection
	// Combined is ignored: each projector is pruned with its own table.
	// It is kept because benchmark/seams.go sets it to
	// dtd.CombineProjections's union.
	Combined *dtd.Projection
}

// StreamMultiGather prunes in-memory input with every projector in pis,
// one StreamGather each, and returns one span list per projector, with
// that gather's stats and error: errs[j] non-nil means sls[j] is nil.
// The caller must Close every non-nil list; data must stay alive and
// unmodified until then.
//
// Deprecated: prune a document once with the union of the projectors
// (§5). This loop remains only as the seam benchmark/seams.go calls.
func StreamMultiGather(data []byte, d *dtd.DTD, pis []dtd.NameSet, opts MultiOptions) ([]*scan.SpanList, []Stats, []error) {
	sls := make([]*scan.SpanList, len(pis))
	stats := make([]Stats, len(pis))
	errs := make([]error, len(pis))
	for j, pi := range pis {
		so := StreamOptions{Validate: opts.Validate}
		if opts.Projections != nil {
			so.Projection = opts.Projections[j]
		}
		sls[j], stats[j], errs[j] = StreamGather(data, d, pi, so)
	}
	return sls, stats, errs
}
