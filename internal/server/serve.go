package server

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
)

// GET /bytes and GET /stream are one request pipeline:
//
//	parse → drain check → admission → source → writer stack → record
//
// ParseQuery picks the mode, and the mode picks the source:
//
//   - pooled: the request checks a shard out of the algorithm's pool
//     and rides the zero-copy Stream.WriteTo path, each staging chunk
//     copied once (chunk → ResponseWriter). The bytes are whatever the
//     shared shard stream serves next. /bytes is always pooled, and so
//     is a /stream without addressing params.
//
//   - addressed (/stream with segment=, domain=, off= or lanes=): the
//     request names a window of the deterministic (seed, domain,
//     segment) address space and reads it through the algorithm's
//     core.WindowSource — no shard is held, and the response is
//     byte-reproducible by anyone holding the seed. The source packs the
//     segments of every concurrent addressed and lease request into
//     shared 64-lane passes (DESIGN.md §12.5). lanes= is validated but
//     picks nothing: the bytes are identical at every width.
//
//   - lease (/stream?lease=<id>): like addressed, but the window comes
//     from a lease token issued by POST /lease; off= resumes mid-window
//     after a disconnect (absolute resume position = lease start + off).
//
// Addressed and lease responses are copied in chunks of at most one
// pass (64 segments) through a buffer sized to the response; chunks
// after the first are segment-aligned, so a long window fills whole
// passes.
//
// The source writes into one writer stack. limitedWriter stops it after
// exactly n bytes, so a shard stream's cursor advances by exactly what
// the response consumed. Below it, hex=1 on /bytes adds a hex encoder,
// which reports the raw bytes it consumed, so the cursor contract holds
// for hex output too. At the bottom, /stream adds chunkWriter: flush per
// chunk, and end at a chunk boundary on client disconnect or drain.
// /bytes instead carries a Content-Length (binary) and runs to
// completion.

// errStreamDraining ends an in-flight /stream at the next chunk
// boundary when the server starts draining.
var errStreamDraining = errors.New("server: draining")

// serve returns the pipeline handler of /bytes or /stream.
func (s *Server) serve(endpoint string) http.HandlerFunc {
	stream := endpoint == EndpointStream
	return func(w http.ResponseWriter, r *http.Request) {
		q, herr := ParseQuery(r, endpoint, s.limits)
		if herr != nil {
			s.fail(w, endpoint, &q, herr)
			return
		}
		if !s.enter() {
			s.fail(w, endpoint, &q, &httpError{http.StatusServiceUnavailable, "draining"})
			return
		}
		defer s.inflight.Done()

		// Admission control: when the in-flight budget is spent (e.g. a
		// quarantine shrank the pool under sustained load), shed the
		// request at once instead of piling it onto checkout. A
		// long-lived /stream holds one slot for its whole duration.
		inflight := s.inflightNow.Add(1)
		defer s.inflightNow.Add(-1)
		if s.cfg.MaxInflight > 0 && inflight > int64(s.cfg.MaxInflight) {
			s.admissionRejected.Inc()
			w.Header().Set("Retry-After", "1")
			s.fail(w, endpoint, &q, &httpError{http.StatusTooManyRequests,
				fmt.Sprintf("server at max in-flight requests (%d)", s.cfg.MaxInflight)})
			return
		}

		h := w.Header()
		h.Set("Content-Type", "application/octet-stream")
		if q.Hex {
			h.Set("Content-Type", "text/plain; charset=utf-8")
		} else if !stream {
			h.Set("Content-Length", strconv.FormatInt(q.N, 10))
		}
		var dst io.Writer = w
		if stream {
			// A /stream names its algorithm and mode even if its source fails.
			h.Set("X-Bsrng-Algorithm", q.Alg.String())
			h.Set("X-Bsrng-Mode", q.Mode)
			s.streamOpen.Add(1)
			defer s.streamOpen.Add(-1)
			dst = &chunkWriter{s: s, w: w, ctx: r.Context(), flush: flusherFor(w)}
		}
		if q.Hex {
			dst = hex.NewEncoder(dst)
		}
		lw := &limitedWriter{w: dst, n: q.N}

		var served int64
		if q.Mode == ModePooled {
			p := s.pools[q.Alg]
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			t0 := time.Now()
			sh, err := p.checkout(ctx)
			cancel()
			s.checkoutLat.Observe(time.Since(t0).Seconds())
			if err != nil {
				s.fail(w, endpoint, &q, &httpError{http.StatusServiceUnavailable, "all shards busy"})
				return
			}
			s.shardsBusy.Add(1)
			defer func() {
				p.handback(sh)
				s.shardsBusy.Add(-1)
			}()
			if s.testHookServing != nil {
				s.testHookServing()
			}
			if !stream {
				h.Set("X-Bsrng-Algorithm", q.Alg.String())
			}
			h.Set("X-Bsrng-Shard", strconv.Itoa(sh.id))
			// The error is the budget spent, the client gone, a drain or
			// a closed stream; served says how far the response got.
			served, _ = sh.stream.Load().WriteTo(lw)
		} else {
			src, err := s.windowSource(q.Alg)
			if err != nil {
				s.fail(w, endpoint, &q, badRequest("%v", err))
				return
			}
			h.Set("X-Bsrng-Domain", strconv.FormatUint(q.Domain, 10))
			h.Set("X-Bsrng-Offset", strconv.FormatUint(q.Offset, 10))
			buf := s.getRespBuf(int(min(q.N, respBufBytes)))
			served, _ = streamWindow(lw, src, q.Domain, q.Offset, buf, q.N)
			s.respBufs.Put(&buf)
		}

		if stream {
			s.streamBytes.Add(uint64(served))
			if q.Mode == ModeLease {
				s.leaseStreams.Inc()
			}
			if served < q.N {
				// Ended early: client went away, drain began, or the pool closed.
				s.streamDisconnects.Inc()
			}
		} else if q.Hex {
			fmt.Fprintln(w)
		}
		s.bytesServed.Add(uint64(served))
		s.record(endpoint, &q, http.StatusOK)
	}
}

// fail counts a refused request and writes its error response.
func (s *Server) fail(w http.ResponseWriter, endpoint string, q *Query, herr *httpError) {
	s.record(endpoint, q, herr.status)
	http.Error(w, herr.msg, herr.status)
}

// record counts one request: /stream by algorithm, mode and status;
// /bytes and POST /lease by algorithm and status.
func (s *Server) record(endpoint string, q *Query, status int) {
	code := strconv.Itoa(status)
	switch endpoint {
	case EndpointStream:
		s.streamRequests.With(q.label, q.Mode, code).Inc()
	case EndpointLease:
		s.leaseRequests.With(q.label, code).Inc()
	default:
		s.requests.With(q.label, code).Inc()
	}
}

// respBufBytes caps the chunk buffer of the addressed and lease paths:
// one 64-lane pass of segments.
const respBufBytes = 64 * core.SegmentBytes

// getRespBuf checks a chunk buffer of n bytes out of the pool, counting
// reuse. A pooled buffer too small for n is dropped for a new one, so
// the pool settles on the sizes the traffic asks for.
func (s *Server) getRespBuf(n int) []byte {
	if b, ok := s.respBufs.Get().(*[]byte); ok && cap(*b) >= n {
		s.respBufReused.Inc()
		return (*b)[:n]
	}
	return make([]byte, n)
}

// errResponseFull marks a response whose byte budget has been spent; it
// stops the source after exactly the requested count.
var errResponseFull = errors.New("server: response budget spent")

// limitedWriter forwards to w until n bytes have been written, then
// fails with errResponseFull. An oversized write is truncated to the
// remaining budget, so the source's cursor advances by exactly the
// bytes the response consumed.
type limitedWriter struct {
	w io.Writer
	n int64
}

func (lw *limitedWriter) Write(p []byte) (int, error) {
	if lw.n <= 0 {
		return 0, errResponseFull
	}
	trunc := false
	if int64(len(p)) > lw.n {
		p = p[:lw.n]
		trunc = true
	}
	k, err := lw.w.Write(p)
	lw.n -= int64(k)
	if err == nil && (trunc || lw.n == 0) {
		err = errResponseFull
	}
	return k, err
}

// streamWindow pumps the n bytes at (domain, offset) from src to w in
// chunks of at most len(buf). A chunk that does not finish the response
// ends on a segment boundary, so a long window's chunks after the first
// are whole 64-segment passes. It stops at w's first error — disconnect,
// drain — and reports how far it got.
func streamWindow(w io.Writer, src *core.WindowSource, domain, offset uint64, buf []byte, n int64) (int64, error) {
	var served int64
	for served < n {
		pos := offset + uint64(served)
		k := n - served
		if k > int64(len(buf)) {
			k = int64(len(buf)) - int64(pos%core.SegmentBytes)
		}
		if err := src.ReadWindow(buf[:k], domain, pos); err != nil {
			return served, err
		}
		wk, err := w.Write(buf[:k])
		served += int64(wk)
		if err != nil {
			return served, err
		}
	}
	return served, nil
}

// chunkWriter is the per-chunk policy of a /stream response: refuse to
// start a chunk once the client is gone or the server is draining,
// write, flush so the chunk leaves the process immediately, and count
// it.
type chunkWriter struct {
	s     *Server
	w     io.Writer
	ctx   context.Context
	flush func()
}

func (cw *chunkWriter) Write(p []byte) (int, error) {
	if err := cw.ctx.Err(); err != nil {
		return 0, err
	}
	if cw.s.isDraining() {
		return 0, errStreamDraining
	}
	k, err := cw.w.Write(p)
	if k > 0 {
		if cw.flush != nil {
			cw.flush()
		}
		cw.s.streamChunks.Inc()
	}
	return k, err
}

// flusherFor extracts the response's flush hook; nil when the writer
// cannot flush (plain io.Writer in tests).
func flusherFor(w io.Writer) func() {
	if f, ok := w.(http.Flusher); ok {
		return f.Flush
	}
	return nil
}

// isDraining reports whether Shutdown has begun.
func (s *Server) isDraining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}
