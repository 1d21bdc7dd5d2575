package prune

// Shared-scan multi-projection: prune one in-memory document against N
// projectors in a single scanner pass (scan.PruneMultiGather), producing one
// independent span-gather result per projector. The projector set is
// fused into one N-wide dtd.Projection decision table; sets larger than the
// 64-projector fuse limit are sharded into consecutive fused passes.

import (
	"context"
	"fmt"

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
	// MaxTokenSize is accepted for symmetry with StreamOptions but, as
	// on every in-memory scanner path, not enforced (see StreamBytes).
	MaxTokenSize int
	// Projections, when non-nil, holds the compiled form of each π
	// (aligned with the pis argument; nil entries are compiled on the
	// spot), letting batch callers compile once per (DTD, π) pair.
	Projections []*dtd.Projection
	// Combined, when non-nil, is the pre-fused decision table for the
	// whole projector set (engine caches hold these); it must have been
	// combined from the same projections in the same order. Ignored
	// when the set exceeds the fuse limit.
	Combined *dtd.Projection
	// Ctx, when non-nil, aborts between fused passes when cancelled.
	Ctx context.Context
}

// StreamMultiGather prunes in-memory input against every projector in
// pis with a shared scan, returning one Gather per projector. Each
// projector's rendered output is byte-identical to a serial
// StreamGather with that projector alone, and stats match it.
//
// The results are per projector: errs[j] non-nil means projector j's
// serial prune would have failed — gathers[j] is then nil, and the
// other projectors are unaffected unless the failure was a syntax or
// well-formedness error their serial runs would have met too (with
// Validate, every one of them). The caller must Close every non-nil
// Gather; data must stay alive and unmodified until then.
func StreamMultiGather(data []byte, d *dtd.DTD, pis []dtd.NameSet, opts MultiOptions) ([]*Gather, []Stats, []error) {
	n := len(pis)
	gathers := make([]*Gather, n)
	stats := make([]Stats, n)
	errs := make([]error, n)
	if n == 0 {
		return gathers, stats, errs
	}
	if err := ctxErr(opts.Ctx); err != nil {
		fillErr(errs, 0, n, err)
		return gathers, stats, errs
	}
	projs := make([]*dtd.Projection, n)
	for j := range pis {
		if opts.Projections != nil && opts.Projections[j] != nil {
			projs[j] = opts.Projections[j]
		} else {
			projs[j] = d.CompileProjection(pis[j])
		}
	}
	for base := 0; base < n; base += dtd.MaxMultiProjections {
		end := base + dtd.MaxMultiProjections
		if end > n {
			end = n
		}
		if err := ctxErr(opts.Ctx); err != nil {
			fillErr(errs, base, end, err)
			continue
		}
		mp := opts.Combined
		if mp == nil || mp.N() != n || base != 0 {
			var err error
			mp, err = dtd.CombineProjections(projs[base:end])
			if err != nil {
				fillErr(errs, base, end, fmt.Errorf("prune: %w", err))
				continue
			}
		}
		sls := make([]*scan.SpanList, end-base)
		for i := range sls {
			g := gatherPool.Get().(*Gather)
			g.closed = false
			gathers[base+i] = g
			sls[i] = g.sl
		}
		ssts, serrs := scan.PruneMultiGather(sls, data, d, mp, scan.Options{Validate: opts.Validate, MaxTokenSize: opts.MaxTokenSize})
		for i := range sls {
			j := base + i
			stats[j] = ssts[i]
			if serrs[i] != nil {
				errs[j] = fmt.Errorf("prune: %w", serrs[i])
				gathers[j].Close()
				gathers[j] = nil
				continue
			}
			stats[j].BytesOut = gathers[j].sl.Len()
		}
	}
	return gathers, stats, errs
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("prune: %w", err)
	}
	return nil
}

func fillErr(errs []error, base, end int, err error) {
	for j := base; j < end; j++ {
		if errs[j] == nil {
			errs[j] = err
		}
	}
}
