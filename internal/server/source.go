package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/health"
	"repro/internal/metrics"
)

// Pooled mode. Each served algorithm has one pooled source: the domain-1
// segment stream of Config.Seed — what a 1-worker core.Stream serves —
// read one 64-segment pass at a time into a reused buffer behind a
// mutex. A request takes the next unread bytes, copying at most one pass
// per lock hold and writing outside the lock. Nothing runs in the
// background: a request that finds too few unread bytes refills.
//
// Every segment of a refill goes through the server.segment.corrupt.<alg>
// failpoint and then the online health tests. A condemned segment is
// skipped (the healthy ones are packed behind the unread bytes) and
// counted in bsrngd_health_failures_total. After degradeAfter
// consecutive condemned segments the algorithm is degraded: /healthz
// answers 503 until a refill yields a clean segment. A refill that
// yields no healthy segment leaves the unread bytes in place and fails
// the read, so a request never spins. With no condemned segment, pooled
// bytes in service order are the domain-1 stream.

// degradeAfter is the run of consecutive condemned segments that
// degrades an algorithm.
const degradeAfter = 3

// pooledDomain is the seed domain pooled requests are served from.
const pooledDomain = 1

// source is one algorithm's pooled byte source.
type source struct {
	mu       sync.Mutex
	r        *core.Generator
	buf      []byte // two passes; buf[pos:end] are the unread healthy bytes
	pos, end int
	run      int // consecutive condemned segments, across refills

	checker   *health.Checker // nil when health checks are disabled
	fpCorrupt string          // server.segment.corrupt.<alg>
	onFailure func(test string)
	passes    *metrics.Counter // passes generated, shared by every source
	degraded  *metrics.Gauge   // bsrngd_health_degraded{alg}: 0 or 1

	lastFailure atomic.Pointer[string]
}

// newSource builds alg's pooled source, wired to s's health metrics.
func newSource(s *Server, alg core.Algorithm) (*source, error) {
	r, err := core.NewSegmentReader(alg, s.cfg.Seed, pooledDomain, s.cfg.Lanes, 0)
	if err != nil {
		return nil, err
	}
	algL := alg.String()
	src := &source{
		r:         r,
		buf:       make([]byte, 2*passBytes),
		fpCorrupt: "server.segment.corrupt." + algL,
		onFailure: func(test string) { s.healthFailures.With(algL, test).Inc() },
		passes:    s.pooledPasses,
		degraded:  s.healthDegraded.With(algL),
	}
	if !s.cfg.DisableHealth {
		src.checker = health.NewChecker(s.cfg.Health)
	}
	return src, nil
}

// read copies the next unread pooled bytes into p (at most one pass) and
// reports how many, and how long it waited for the source. It refills at
// most once, when fewer than len(p) bytes are unread, so the bytes one
// call copies are contiguous in service order unless the refill
// condemned a segment. It returns 0 only when the refill yielded no
// healthy segment; the unread bytes then stay for a later read.
func (src *source) read(p []byte) (int, time.Duration) {
	t0 := time.Now()
	src.mu.Lock()
	wait := time.Since(t0)
	if src.end-src.pos < len(p) && !src.refill() {
		src.mu.Unlock()
		return 0, wait
	}
	n := copy(p, src.buf[src.pos:src.end])
	src.pos += n
	src.mu.Unlock()
	return n, wait
}

// refill moves the unread bytes to the front of the buffer, reads the
// next pass behind them and keeps its healthy segments, packed. It
// reports whether any segment was kept. Called with mu held and at most
// one pass unread.
func (src *source) refill() bool {
	src.end = copy(src.buf, src.buf[src.pos:src.end])
	src.pos = 0
	start := src.end
	pass := src.buf[start : start+passBytes]
	src.r.Read(pass)
	src.passes.Inc()
	for off := 0; off < passBytes; off += core.SegmentBytes {
		seg := pass[off : off+core.SegmentBytes]
		if src.checker != nil {
			if faultinject.Hit(src.fpCorrupt) {
				clear(seg)
			}
			if err := src.checker.Check(seg); err != nil {
				src.condemn(err)
				continue
			}
		}
		src.run = 0
		if src.end != start+off {
			copy(src.buf[src.end:], seg)
		}
		src.end += core.SegmentBytes
	}
	var degraded int64
	if src.run >= degradeAfter {
		degraded = 1
	}
	src.degraded.Set(degraded)
	return src.end > start
}

// condemn records one skipped segment.
func (src *source) condemn(err error) {
	src.run++
	var f *health.Failure
	if errors.As(err, &f) {
		name := f.Test.String()
		src.lastFailure.Store(&name)
		src.onFailure(name)
	}
}

// probe lets a degraded source try one refill, so it recovers without
// pooled traffic (a cluster router stops sending a degraded node any).
// The bytes it keeps are served next. A source holding more than one
// pass of unread bytes waits for requests to drain them first.
func (src *source) probe() {
	if src.degraded.Value() == 0 {
		return
	}
	src.mu.Lock()
	if src.end-src.pos <= passBytes {
		src.refill()
	}
	src.mu.Unlock()
}

// sourceHealth is the /healthz view of one algorithm's pooled source.
type sourceHealth struct {
	Degraded        bool   `json:"degraded"`
	SegmentsChecked uint64 `json:"segments_checked"`
	HealthFailures  uint64 `json:"health_failures"`
	LastFailure     string `json:"last_failure,omitempty"`
}

// health is safe to call concurrently with serving.
func (src *source) health() sourceHealth {
	h := sourceHealth{Degraded: src.degraded.Value() != 0}
	if src.checker != nil {
		cs := src.checker.Stats()
		h.SegmentsChecked = cs.Segments
		h.HealthFailures = cs.Total()
	}
	if lf := src.lastFailure.Load(); lf != nil {
		h.LastFailure = *lf
	}
	return h
}
