package server

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"syscall"
	"time"

	"xmlproj"
)

// exchange is one request, begin → admit → consume → frame → done. The
// lifecycle is written here once; a handler keeps what differs between
// routes — how the projector set is resolved, how the body is consumed,
// how the response is framed — and reports what happened in the outcome
// fields, which done reads once.
type exchange struct {
	s     *Server
	w     responseWriter
	r     *http.Request
	start time.Time

	// Set by admit.
	admitted bool
	ctx      context.Context
	cancel   context.CancelFunc
	rc       *http.ResponseController // non-nil while the deadlines are armed
	body     meteredBody
	buf      *bytes.Buffer // readBody's pooled buffer

	// The outcome. Only reject sets status; otherwise done takes it from
	// err, or from the response when there is none.
	status int
	err    error
	stats  xmlproj.PruneStats
	cache  string // "hit", "miss", "bypass", "revalidated"; empty when the cache played no part
}

// begin is the one way in; done must follow.
func (s *Server) begin(w http.ResponseWriter, r *http.Request) *exchange {
	s.m.requests.Add(1)
	return &exchange{s: s, w: responseWriter{ResponseWriter: w}, r: r, start: time.Now()}
}

// reject ends the exchange with a status of the handler's choosing; done
// sends msg as the response body and logs it as the error.
func (x *exchange) reject(status int, msg string) {
	x.status, x.err = status, errors.New(msg)
}

// admit checks the declared size against MaxBodyBytes (413), takes an
// admission slot within AdmissionWait (429), then arms the per-request
// deadline and sets up the size-limited, metered body. On false the
// exchange is already rejected.
func (x *exchange) admit() bool {
	s, r := x.s, x.r
	if s.maxBody > 0 && r.ContentLength > s.maxBody {
		x.reject(http.StatusRequestEntityTooLarge, fmt.Sprintf("request body %d bytes exceeds limit %d", r.ContentLength, s.maxBody))
		return false
	}
	if !s.admit(r.Context()) {
		x.w.Header().Set("Retry-After", "1")
		x.reject(http.StatusTooManyRequests, "server at concurrency limit")
		return false
	}
	x.admitted = true
	s.m.inFlight.Add(1)

	x.ctx = r.Context()
	if s.opts.RequestTimeout > 0 {
		x.ctx, x.cancel = context.WithTimeout(x.ctx, s.opts.RequestTimeout)
		// The context only gates the gaps between reads; a read already
		// blocked on a stalled body can outlive it. Arm the connection
		// deadlines too, so a blocked read (or a write to a client that
		// stopped draining) fails with an i/o timeout.
		x.rc = http.NewResponseController(&x.w)
		deadline := time.Now().Add(s.opts.RequestTimeout)
		_ = x.rc.SetReadDeadline(deadline)
		_ = x.rc.SetWriteDeadline(deadline)
	}

	var src io.Reader = r.Body
	if s.maxBody > 0 {
		// The server's own writer, not the wrapper: MaxBytesReader tells
		// it to close the connection once the limit is hit.
		src = http.MaxBytesReader(x.w.ResponseWriter, r.Body, s.maxBody)
	}
	x.body = meteredBody{r: src, size: r.ContentLength}
	return true
}

// admit takes an admission slot, waiting up to AdmissionWait. It
// reports false when the server is at its concurrency limit (or the
// client gave up while queued).
func (s *Server) admit(ctx context.Context) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	if s.opts.AdmissionWait <= 0 {
		return false
	}
	ctx, cancel := context.WithTimeout(ctx, s.opts.AdmissionWait)
	defer cancel()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

// streamOptions are the prune options of an admitted request.
func (x *exchange) streamOptions(validate bool) xmlproj.StreamOptions {
	return xmlproj.StreamOptions{
		Validate:     validate,
		MaxTokenSize: x.s.opts.MaxTokenSize,
		Context:      x.ctx,
	}
}

// gatherBufPool recycles the request-body buffers of the routes that
// prune in place; maxPooledGatherBuf keeps an occasional huge body (a
// raised MaxGatherBytes) from pinning its buffer forever.
//
// Server.lastBuf, in front of the pool, is the buffer the last request
// returned. A sync.Pool alone hands a buffer back only on the P that
// put it there, so one connection's sequential requests, scheduled now
// here and now there, would each grow a body-sized buffer of their own
// — and keep growing them, since every GC cycle empties the pool. The
// slot makes them reuse one. It is not the pool's to clear: an idle
// daemon pins at most this one buffer, of at most maxPooledGatherBuf
// bytes.
var gatherBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledGatherBuf = DefaultMaxGatherBytes

// readBody buffers the admitted body whole in a recycled buffer, which
// done gives back once the handler — and with it every prune result
// referencing these bytes — is finished. On failure x.err is set.
func (x *exchange) readBody() []byte {
	if x.buf = x.s.lastBuf.Swap(nil); x.buf == nil {
		x.buf = gatherBufPool.Get().(*bytes.Buffer)
	}
	x.buf.Reset()
	// A declared length costs the client nothing, so it pre-sizes the
	// buffer only up to the gather bound; past that, arriving bytes do.
	// MinRead on top is the room ReadFrom wants before every read: without
	// it a read that stops just short of the end doubles the buffer.
	if n := min(x.body.size, x.s.maxGather); n > 0 {
		x.buf.Grow(int(n) + bytes.MinRead)
	}
	_, x.err = x.buf.ReadFrom(&x.body)
	return x.buf.Bytes()
}

// releaseBody gives readBody's buffer to the next request: into the
// slot, and whatever the slot held into the pool.
func (x *exchange) releaseBody() {
	if x.buf == nil || x.buf.Cap() > maxPooledGatherBuf {
		return
	}
	if prev := x.s.lastBuf.Swap(x.buf); prev != nil {
		gatherBufPool.Put(prev)
	}
}

// disarm clears the connection deadlines, so that what is written after
// the prune — the response, or the error status of an expired deadline —
// still reaches the client.
func (x *exchange) disarm() {
	if x.rc != nil {
		_ = x.rc.SetReadDeadline(time.Time{})
		_ = x.rc.SetWriteDeadline(time.Time{})
		x.rc = nil
	}
}

// entity sets the headers naming a cache-eligible pruned entity and how
// the result cache treated the request.
func (x *exchange) entity(etag, digest string, hit bool) {
	h := x.w.Header()
	h.Set("ETag", etag)
	h.Set(headerDocDigest, digest)
	if hit {
		h.Set(headerXCache, "HIT")
		x.cache = "hit"
	} else {
		h.Set(headerXCache, "MISS")
		x.cache = "miss"
	}
}

// notModified answers 304: the client already holds exactly this pruned
// entity.
func (x *exchange) notModified(etag, digest string) {
	x.s.m.cache304.Add(1)
	x.entity(etag, digest, true)
	x.cache = "revalidated"
	x.w.WriteHeader(http.StatusNotModified)
}

// done is the one way out: it classifies the error, sends the error
// response unless the handler already started one, releases what admit
// took, and records the request — exactly one outcome counter, one
// latency observation, one log record.
func (x *exchange) done() {
	s := x.s
	x.disarm()
	if x.err == nil {
		x.status = cmp.Or(x.w.code, http.StatusOK)
	} else if x.status == 0 {
		x.status = classify(x.err)
	}
	if x.err != nil && x.w.code == 0 {
		http.Error(&x.w, x.err.Error(), x.status)
	}
	if x.admitted {
		if x.cancel != nil {
			x.cancel()
		}
		x.releaseBody()
		s.m.inFlight.Add(-1)
		<-s.sem
	}

	elapsed := time.Since(x.start)
	s.m.outcome(x.status).Add(1)
	s.m.bytesIn.Add(x.body.n)
	s.m.bytesOut.Add(x.stats.BytesOut)
	s.m.latency.observe(elapsed)
	x.logRequest(elapsed)
}

// statusClientGone is nginx's non-standard "client closed request";
// nothing can be delivered, the code only exists for logs and metrics.
const statusClientGone = 499

// classify maps a failed prune, body read or response write to its HTTP
// status, and through metrics.outcome to its counter.
func classify(err error) int {
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded), isTimeout(err):
		return http.StatusRequestTimeout
	// io.ErrUnexpectedEOF is the transport's: the body ended before its
	// declared length. A document that ends early is the scanner's own
	// syntax error, a 422. EPIPE and ECONNRESET are what a read or a
	// response write meets once the peer has closed the connection.
	case errors.Is(err, context.Canceled), errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, syscall.EPIPE), errors.Is(err, syscall.ECONNRESET):
		return statusClientGone
	default:
		return http.StatusUnprocessableEntity
	}
}

// isTimeout reports whether err is an i/o timeout from the armed
// connection read deadline (as opposed to the request context's
// deadline, which errors.Is catches directly).
func isTimeout(err error) bool {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// logRequest emits the per-request structured record.
func (x *exchange) logRequest(elapsed time.Duration) {
	attrs := []any{
		"method", x.r.Method,
		"path", x.r.URL.Path,
		"query", x.r.URL.RawQuery,
		"remote", x.r.RemoteAddr,
		"status", x.status,
		"bytes_in", x.body.n,
		"bytes_out", x.stats.BytesOut,
		"elapsed", elapsed,
	}
	if x.cache != "" {
		attrs = append(attrs, "cache", x.cache)
	}
	if x.err != nil {
		attrs = append(attrs, "err", x.err.Error())
		x.s.log.Warn("prune", attrs...)
		return
	}
	x.s.log.Info("prune", attrs...)
}

// responseWriter records the status code the response started with (0:
// not started): it decides between a clean error status and the trailer
// path, and is the status of a request that did not fail. With flush set
// (the streamed route) every write goes straight to the client.
type responseWriter struct {
	http.ResponseWriter
	code  int
	flush http.Flusher
}

func (w *responseWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *responseWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	if n > 0 && w.flush != nil {
		w.flush.Flush()
	}
	return n, err
}

// Unwrap lets http.ResponseController reach the connection.
func (w *responseWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// meteredBody counts bytes read and keeps the declared request size,
// which routes a body to the gather path and pre-sizes its buffer.
type meteredBody struct {
	r    io.Reader
	n    int64
	size int64 // Content-Length; <= 0 means unknown
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}
