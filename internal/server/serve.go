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
//   - pooled: the request takes the next bytes of its algorithm's pooled
//     source (source.go), the domain-1 segment stream of the seed. /bytes
//     is always pooled, and so is a /stream without addressing params.
//
//   - addressed (/stream with segment=, domain= or off=): the request
//     names a window of the deterministic (seed, domain, segment)
//     address space and reads it through the algorithm's
//     core.WindowSource, so the response is byte-reproducible by anyone
//     holding the seed. The source packs the segments of every
//     concurrent addressed and lease request into shared 64-lane passes
//     (DESIGN.md §12.5).
//
//   - lease (/stream?lease=<id>): like addressed, but the window comes
//     from a lease token issued by POST /lease; off= resumes mid-window
//     after a disconnect (absolute resume position = lease start + off).
//
// Either source is copied in chunks of at most one pass (64 segments)
// through a pooled buffer sized to the response, and each pump stops
// after exactly n bytes. A pooled chunk is one lock hold on the source;
// addressed and lease chunks after the first are segment-aligned, so a
// long window fills whole passes.
//
// The pump writes into one writer stack. hex=1 on /bytes adds a hex
// encoder, which reports the raw bytes it consumed. At the bottom,
// /stream adds chunkWriter: flush per chunk, and end at a chunk boundary
// on client disconnect or drain. /bytes instead carries a Content-Length
// (binary) and runs to completion. A pooled source that yields no
// healthy segment answers 503 if nothing was written yet, and otherwise
// ends the response early.

// errStreamDraining ends an in-flight /stream at the next chunk
// boundary when the server starts draining.
var errStreamDraining = errors.New("server: draining")

// errSourceDry ends a pooled response when a refill of its source
// yields no healthy segment.
var errSourceDry = errors.New("server: no healthy segment")

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

		// Admission control: when the in-flight budget is spent, shed
		// the request at once instead of queueing it on a source. A
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

		// The pump's error is the client gone, a drain or a dry pooled
		// source; served says how far the response got.
		var served int64
		var err error
		var buf []byte
		e := s.engines[q.Alg] // ParseQuery refused every unserved algorithm
		if q.Mode == ModePooled {
			if s.testHookServing != nil {
				s.testHookServing()
			}
			if !stream {
				h.Set("X-Bsrng-Algorithm", q.Alg.String())
			}
			buf = s.getRespBuf(int(min(q.N, passBytes)))
			var wait time.Duration
			served, wait, err = streamPooled(dst, e.pooled, buf, q.N)
			s.checkoutLat.Observe(wait.Seconds())
		} else {
			h.Set("X-Bsrng-Domain", strconv.FormatUint(q.Domain, 10))
			h.Set("X-Bsrng-Offset", strconv.FormatUint(q.Offset, 10))
			buf = s.getRespBuf(int(min(q.N, passBytes)))
			served, err = streamWindow(dst, e.ws, q.Domain, q.Offset, buf, q.N)
		}
		s.putRespBuf(buf)
		if served == 0 && errors.Is(err, errSourceDry) {
			s.fail(w, endpoint, &q, &httpError{http.StatusServiceUnavailable,
				fmt.Sprintf("%v has no healthy segment to serve", q.Alg)})
			return
		}

		if stream {
			s.streamBytes.Add(uint64(served))
			if q.Mode == ModeLease {
				s.leaseStreams.Inc()
			}
			if served < q.N {
				// Ended early: client went away, drain began, or the source went dry.
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

// passBytes is one 64-lane pass of segments. It caps a response's
// chunk buffer, and a pooled source refills one pass at a time.
const passBytes = 64 * core.SegmentBytes

// maxFreeRespBufs bounds the response buffer free list: one buffer per
// concurrent request of a busy daemon, at most a pass each.
const maxFreeRespBufs = 16

// getRespBuf checks a chunk buffer of n bytes out of the free list,
// counting reuse. A listed buffer too small for n is dropped for a new
// one, so the list settles on the sizes the traffic asks for.
func (s *Server) getRespBuf(n int) []byte {
	s.respBufs.Lock()
	var b []byte
	if k := len(s.respBufs.free); k > 0 {
		b = s.respBufs.free[k-1]
		s.respBufs.free[k-1] = nil
		s.respBufs.free = s.respBufs.free[:k-1]
	}
	s.respBufs.Unlock()
	if b != nil && cap(b) >= n {
		s.respBufReused.Inc()
		return b[:n]
	}
	return make([]byte, n)
}

// putRespBuf returns a response's chunk buffer to the free list, or
// drops it when the list is full.
func (s *Server) putRespBuf(b []byte) {
	s.respBufs.Lock()
	if len(s.respBufs.free) < maxFreeRespBufs {
		s.respBufs.free = append(s.respBufs.free, b)
	}
	s.respBufs.Unlock()
}

// streamPooled pumps n bytes of src to w in chunks of at most len(buf)
// and reports how far it got and how long it waited for the source. It
// stops at w's first error — disconnect, drain — or with errSourceDry
// when a refill yields no healthy segment.
func streamPooled(w io.Writer, src *source, buf []byte, n int64) (int64, time.Duration, error) {
	var served int64
	var wait time.Duration
	for served < n {
		k, wt := src.read(buf[:min(n-served, int64(len(buf)))])
		wait += wt
		if k == 0 {
			return served, wait, errSourceDry
		}
		wk, err := w.Write(buf[:k])
		served += int64(wk)
		if err != nil {
			return served, wait, err
		}
	}
	return served, wait, nil
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
