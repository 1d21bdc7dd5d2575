package server

import (
	"fmt"
	"mime/multipart"
	"net/http"
	"net/textproto"
	"strconv"
	"strings"

	"xmlproj"
)

// handleMultiprune prunes one request body against several projectors in
// a single shared scan (POST /multiprune). The projector set is named by
// repeated projection= parameters (precompiled at startup) or by
// schema= plus repeated proj= query bunches (queries separated by ';'),
// in request order. The response is multipart/mixed with one part per
// projector, in the same order: successful parts carry the pruned
// document plus X-Prune-* stats headers, failed parts are empty and
// carry X-Prune-Error. Verdicts are per projector — one projector's
// validation failure does not disturb the others' output.
func (s *Server) handleMultiprune(w http.ResponseWriter, r *http.Request) {
	x := s.begin(w, r)
	defer x.done()
	s.m.multiRequests.Add(1)

	nps, status, msg := s.resolveMulti(r)
	if nps == nil {
		x.reject(status, msg)
		return
	}
	s.m.multiFanout.Add(int64(len(nps)))
	if !x.admit() {
		return
	}

	// The shared scan tokenizes in place, so the body is buffered whole
	// (bounded by MaxBodyBytes) — the multi path is the span-gather path.
	data := x.readBody()
	if x.err != nil {
		return
	}
	ps := make([]*xmlproj.Projector, len(nps))
	for j, np := range nps {
		ps[j] = np.p
	}
	results, errs := xmlproj.PruneMultiGather(ps, data, x.streamOptions(nps[0].validate))
	x.disarm()

	// The shared scan prunes N projections in one pass; its outputs are
	// interleaved with the scan, so the result cache never covers it.
	if s.eng.ResultCacheEnabled() {
		x.cache = "bypass"
	}
	// Per-projector verdicts ride in the parts, so the response itself is
	// 200 even when some (or all) projectors failed on this document; the
	// first failure is the request's outcome in the log and the counters.
	mw := multipart.NewWriter(&x.w)
	x.w.Header().Set("Content-Type", "multipart/mixed; boundary="+mw.Boundary())
	for j, np := range nps {
		h := make(textproto.MIMEHeader)
		h.Set("X-Projection", np.name)
		if errs[j] != nil {
			h.Set("X-Prune-Error", errs[j].Error())
			mw.CreatePart(h)
			if x.err == nil {
				x.err = errs[j]
			}
			continue
		}
		res := results[j]
		h.Set("Content-Type", "application/xml")
		h.Set("Content-Length", strconv.FormatInt(res.Len(), 10))
		h.Set("X-Prune-Elements-Out", strconv.FormatInt(res.Stats.ElementsOut, 10))
		h.Set("X-Prune-Elements-Skipped", strconv.FormatInt(res.Stats.ElementsSkipped, 10))
		h.Set("X-Prune-Bytes-Out", strconv.FormatInt(res.Stats.BytesOut, 10))
		pw, perr := mw.CreatePart(h)
		if perr == nil {
			_, perr = res.WriteTo(pw)
		}
		x.stats.BytesOut += res.Stats.BytesOut
		res.Close()
		if perr != nil {
			// The client stopped draining mid-part; nothing more can be
			// delivered.
			if x.err == nil {
				x.err = perr
			}
			break
		}
	}
	mw.Close()
}

// resolveMulti maps the request to an ordered projector list: repeated
// projection= names, or schema= with repeated proj= query bunches
// (queries separated by ';'), or both — named projections first, then
// specs, all against one schema. A nil return carries the HTTP status
// and message.
func (s *Server) resolveMulti(r *http.Request) ([]*namedProjection, int, string) {
	q := r.URL.Query()
	var out []*namedProjection
	schema := q.Get("schema")
	validate := q.Get("validate") == "1" || q.Get("validate") == "true"

	for _, name := range q["projection"] {
		np, ok := s.projections[name]
		if !ok {
			return nil, http.StatusNotFound, fmt.Sprintf("unknown projection %q", name)
		}
		if schema == "" {
			schema = np.schema
		} else if np.schema != schema {
			return nil, http.StatusBadRequest, fmt.Sprintf("projection %q is for schema %q, request uses %q — one multiprune shares one scan, so one schema", name, np.schema, schema)
		}
		if q.Has("validate") && validate != np.validate {
			cp := *np
			cp.validate = validate
			np = &cp
		}
		out = append(out, np)
	}

	specs := q["proj"]
	if len(specs) > 0 && schema == "" {
		return nil, http.StatusBadRequest, "proj parameters need a schema parameter"
	}
	if len(specs) > 0 {
		d, ok := s.schemas[schema]
		if !ok {
			return nil, http.StatusNotFound, fmt.Sprintf("unknown schema %q", schema)
		}
		for i, spec := range specs {
			var queries []string
			for _, part := range strings.Split(spec, ";") {
				if part = strings.TrimSpace(part); part != "" {
					queries = append(queries, part)
				}
			}
			p, err := s.infer(d, queries)
			if err != nil {
				return nil, http.StatusBadRequest, fmt.Sprintf("proj %d: %v", i, err)
			}
			out = append(out, &namedProjection{name: fmt.Sprintf("proj%d", i), validate: validate, p: p})
		}
	}

	switch {
	case len(out) == 0:
		return nil, http.StatusBadRequest, "missing projection or proj parameters"
	case len(out) > xmlproj.MaxFusedProjectors:
		return nil, http.StatusBadRequest, fmt.Sprintf("%d projections exceed the limit of %d per request", len(out), xmlproj.MaxFusedProjectors)
	}
	// One scan, one validation mode: a validating projector would see
	// kills a non-validating one must not, so the set has to agree.
	for _, m := range out[1:] {
		if m.validate != out[0].validate {
			return nil, http.StatusBadRequest, "projections disagree on validation; pass an explicit validate parameter"
		}
	}
	return out, 0, ""
}
