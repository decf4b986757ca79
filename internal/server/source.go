package server

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/metrics"
)

// Pooled mode. Each served algorithm has one engine, its
// core.WindowSource, and one pooled source on it: the domain-1 segment
// stream of Config.Seed — what a 1-worker core.Stream serves — read
// behind a mutex into a reused buffer by refills, each a 64-segment
// demand on the engine that shares its passes with addressed and lease
// windows. A request copies its bytes under the lock and writes them
// outside it. Nothing runs in the background: a request that finds too
// few unread bytes refills, until enough are unread.
//
// Each refill runs core.Screen: every segment goes through the
// server.segment.corrupt.<alg> failpoint, then the online health tests.
// A condemned segment is skipped (the healthy ones are packed behind the
// unread bytes) and counted in bsrngd_health_failures_total. After
// degradeAfter consecutive condemned segments the algorithm is degraded:
// /healthz answers 503 until a refill yields a clean segment, or until a
// /healthz probe finds the segment the next refill starts with clean. A refill
// that yields no healthy segment leaves the unread bytes in place and
// fails the read, so a request gets all its bytes or none and never
// spins. With no condemned segment, pooled bytes in service order are
// the domain-1 stream.

// degradeAfter is the run of consecutive condemned segments that
// degrades an algorithm.
const degradeAfter = 3

// pooledDomain is the seed domain pooled requests are served from.
const pooledDomain = 1

// source is one algorithm's pooled byte source.
type source struct {
	mu       sync.Mutex
	ws       *core.WindowSource // the algorithm's engine
	next     uint64             // domain-1 offset of the next refill
	buf      []byte             // two passes; buf[pos:end] are the unread healthy bytes
	pos, end int
	run      int // consecutive condemned segments, across refills

	checker   *health.Checker // nil when health checks are disabled
	fpCorrupt string          // server.segment.corrupt.<alg>
	onFailure func(test string)
	passes    *metrics.Counter // passes generated, shared by every source
	degraded  *metrics.Gauge   // bsrngd_health_degraded{alg}: 0 or 1

	lastFailure atomic.Pointer[string]
}

// newSource builds alg's pooled source over its window source ws, wired
// to s's health metrics.
func newSource(s *Server, alg core.Algorithm, ws *core.WindowSource) *source {
	algL := alg.String()
	src := &source{
		ws:        ws,
		buf:       make([]byte, 2*passBytes),
		fpCorrupt: "server.segment.corrupt." + algL,
		onFailure: func(test string) { s.healthFailures.With(algL, test).Inc() },
		passes:    s.pooledPasses,
		degraded:  s.healthDegraded.With(algL),
	}
	if !s.cfg.DisableHealth {
		src.checker = health.NewChecker(health.Config{})
	}
	return src
}

// read copies the next len(p) unread pooled bytes into p (at most one
// pass) and reports how many, and how long it waited for the source. It
// refills until enough bytes are unread, so it copies all of p or, when
// a refill yields no healthy segment, nothing; the unread bytes then
// stay for a later read. The bytes one call copies are contiguous in
// service order unless a refill condemned a segment.
func (src *source) read(p []byte) (int, time.Duration) {
	t0 := time.Now()
	src.mu.Lock()
	defer src.mu.Unlock()
	wait := time.Since(t0)
	for src.end-src.pos < len(p) {
		if !src.refill() {
			return 0, wait
		}
	}
	src.pos += copy(p, src.buf[src.pos:src.end])
	return len(p), wait
}

// refill moves the unread bytes to the front of the buffer, reads the
// next pass behind them and keeps its healthy segments, packed. It
// reports whether any segment was kept. Called with mu held and at most
// one pass unread.
func (src *source) refill() bool {
	src.end = copy(src.buf, src.buf[src.pos:src.end])
	src.pos = 0
	pass := src.buf[src.end : src.end+passBytes]
	if src.ws.ReadWindow(pass, pooledDomain, src.next) != nil {
		return false // past the last addressable segment
	}
	src.next += passBytes
	src.passes.Inc()
	n := passBytes
	if src.checker != nil {
		n, _ = core.Screen(pass, src.fpCorrupt, src.check, &src.run, 0)
		var degraded int64
		if src.run >= degradeAfter {
			degraded = 1
		}
		src.degraded.Set(degraded)
	}
	src.end += n
	return n > 0
}

// check runs the health tests on one segment and records a condemned
// one.
func (src *source) check(seg []byte) error {
	err := src.checker.Check(seg)
	if f, ok := err.(*health.Failure); ok {
		name := f.Test.String()
		src.lastFailure.Store(&name)
		src.onFailure(name)
	}
	return err
}

// probe lets a degraded source recover without pooled traffic (a
// cluster router stops sending a degraded node any). It regenerates the
// segment the next refill starts with into a scratch segment and
// screens it; a healthy one clears the degraded state. It consumes
// nothing and leaves the buffer alone: the next refill serves that
// segment, since its bytes are a function of its address.
func (src *source) probe() {
	if src.degraded.Value() == 0 {
		return
	}
	src.mu.Lock()
	defer src.mu.Unlock()
	seg := make([]byte, core.SegmentBytes)
	if src.ws.ReadWindow(seg, pooledDomain, src.next) != nil {
		return
	}
	var run int
	if n, _ := core.Screen(seg, src.fpCorrupt, src.check, &run, 0); n > 0 {
		src.run = 0
		src.degraded.Set(0)
	}
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
