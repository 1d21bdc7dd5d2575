package prune

// Shared-scan multi-projection: prune one in-memory document against N
// projectors in a single scanner pass (scan.PruneMultiGather), producing one
// independent span-gather result per projector. The projector set is
// fused into one N-wide dtd.Projection decision table, so a set holds at
// most dtd.MaxMultiProjections projectors.
//
// No product route reaches this file: for many queries the product
// infers one union projector (§5) and prunes once. StreamMultiGather is
// kept as the seam benchmark/seams.go times as scan.multi4_mb_s, the row
// CI's fused-pass gate reads; it goes when that seam does.

import (
	"xmlproj/internal/dtd"
	"xmlproj/internal/scan"
)

// MultiOptions configures a shared-scan multi-prune.
type MultiOptions struct {
	// Validate checks content models, attribute declarations and the
	// root element while pruning, and well-formedness everywhere
	// (StreamOptions.Validate). Verdicts are per projector: a serial
	// prune only validates the regions its projector keeps, so one
	// projector can fail while the others complete — and without
	// Validate it only checks the well-formedness of those regions, so
	// the same holds for a syntax error.
	Validate bool
	// Projections, when non-nil, holds the compiled form of each π
	// (aligned with the pis argument; nil entries are compiled on the
	// spot), letting batch callers compile once per (DTD, π) pair.
	Projections []*dtd.Projection
	// Combined, when non-nil, is the pre-fused decision table for the
	// whole projector set; it must have been combined from the same
	// projections in the same order.
	Combined *dtd.Projection
}

// StreamMultiGather prunes in-memory input against every projector in
// pis with a shared scan, returning one span list per projector. Each
// projector's rendered output is byte-identical to a serial
// StreamGather with that projector alone, and stats match it.
//
// The results are per projector: errs[j] non-nil means projector j's
// serial prune would have failed — sls[j] is then nil, and the
// other projectors are unaffected unless the failure was a syntax or
// well-formedness error their serial runs would have met too (with
// Validate, every one of them). A set larger than
// dtd.MaxMultiProjections fails in every slot with
// dtd.CombineProjections' error. The caller must Close every non-nil
// list; data must stay alive and unmodified until then.
func StreamMultiGather(data []byte, d *dtd.DTD, pis []dtd.NameSet, opts MultiOptions) ([]*scan.SpanList, []Stats, []error) {
	n := len(pis)
	sls := make([]*scan.SpanList, n)
	stats := make([]Stats, n)
	errs := make([]error, n)
	mp := opts.Combined
	if mp == nil || mp.N() != n {
		projs := make([]*dtd.Projection, n)
		for j := range pis {
			if opts.Projections != nil && opts.Projections[j] != nil {
				projs[j] = opts.Projections[j]
			} else {
				projs[j] = d.CompileProjection(pis[j])
			}
		}
		var err error
		if mp, err = dtd.CombineProjections(projs); err != nil {
			for j := range errs {
				errs[j] = wrap(err)
			}
			return sls, stats, errs
		}
	}
	for j := range sls {
		sls[j] = scan.NewSpanList(data)
	}
	ssts, serrs := scan.PruneMultiGather(sls, data, d, mp, scan.Options{Validate: opts.Validate})
	for j := range sls {
		stats[j], errs[j] = ssts[j], wrap(serrs[j])
		if errs[j] != nil {
			sls[j].Close()
			sls[j] = nil
			continue
		}
		stats[j].BytesOut = sls[j].Len()
	}
	return sls, stats, errs
}
