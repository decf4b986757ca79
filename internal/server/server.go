// Package server is bsrngd's serving layer: an HTTP front end over the
// paper's bitsliced engines operated as a bulk entropy service. Every
// served byte is a function of (algorithm, seed, domain, segment), made
// by the algorithm's one engine, its core.WindowSource. New builds the
// engine of every served algorithm into a table that no request writes;
// a request naming any other algorithm, by alg= or by a lease token, is
// refused. Addressed and lease requests read their window of the
// address space through the engine. Pooled requests take the next bytes
// of their algorithm's pooled source, the domain-1 segment stream of the
// seed (see source.go), which refills with 64-segment demands on the
// same engine. Everything is instrumented through internal/metrics and
// exposed on /metrics.
//
// Every pooled segment runs the continuous online health tests of
// internal/health. A condemned segment is skipped, never served; after
// three consecutive condemned segments the algorithm is degraded and
// /healthz answers 503 until the segment its next refill starts with is
// clean. Optional admission control (MaxInflight) sheds load with 429 +
// Retry-After.
//
// Endpoints:
//
//	GET /bytes?alg=mickey&n=1024[&hex=1]  — n pseudo-random bytes
//	GET /stream?alg=&n=                   — chunked streaming delivery,
//	                                        flushed per chunk; addressed
//	                                        mode via segment=/domain=/
//	                                        off=, resumable lease mode
//	                                        via lease=&off=
//	POST /lease?alg=&segments=            — issue a segment lease (a
//	                                        stateless token over the
//	                                        deterministic address space)
//	GET /lease/{id}                       — resolve a lease token
//	GET /healthz                          — per-algorithm source state as
//	                                        JSON; 200 ok / 503 degraded
//	                                        or draining
//	GET /metrics                          — text exposition
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/metrics"
)

// Config tunes the service; zero values select the documented defaults.
type Config struct {
	// Seed is the deterministic base seed. Pooled requests of an
	// algorithm are served, in arrival order, the byte stream of
	// core.NewSegmentReader(alg, Seed, 1, 64, 0) — what every
	// core.Stream of Seed reads — less any segment the health tests
	// condemn.
	Seed uint64
	// Algorithms to serve; nil means core.ServedAlgorithms.
	Algorithms []core.Algorithm
	// MaxRequestBytes caps n on /bytes and /stream, and is a /stream's
	// default n (default 16 MiB).
	MaxRequestBytes int64
	// MaxInflight caps concurrent requests across /bytes and /stream;
	// excess requests get 429 with a Retry-After header instead of
	// queueing on a source. A long-lived /stream holds one slot for its
	// whole duration. 0 disables admission control.
	MaxInflight int
	// MaxLeaseSegments caps the window of one segment lease (default
	// 65536 segments = 128 MiB; also the default window when POST /lease
	// names no size).
	MaxLeaseSegments int
	// DisableHealth turns off the continuous online health tests (and
	// with them segment skipping and the degraded state). They are ON by
	// default: healthy engines never trip the cutoffs, so the served
	// bytes are unchanged.
	DisableHealth bool
	// Health overrides the per-test cutoffs (zero fields = defaults,
	// negative fields are rejected; see health.Config).
	Health health.Config
}

// Server owns the served algorithms' engines, the metrics registry and
// the HTTP mux.
type Server struct {
	cfg    Config
	limits Limits // the bounds ParseQuery enforces for this server
	// engines holds every served algorithm's engine. New fills it and
	// nothing writes it afterwards, so requests read it without a lock.
	engines map[core.Algorithm]*engine
	reg     *metrics.Registry
	mux     *http.ServeMux

	mu       sync.RWMutex // guards draining against inflight.Add
	draining bool
	inflight sync.WaitGroup

	bytesServed  *metrics.Counter
	requests     *metrics.LabeledCounter
	checkoutLat  *metrics.Histogram
	pooledPasses *metrics.Counter

	streamRequests    *metrics.LabeledCounter
	streamBytes       *metrics.Counter
	streamChunks      *metrics.Counter
	streamOpen        *metrics.Gauge
	streamDisconnects *metrics.Counter
	leaseRequests     *metrics.LabeledCounter
	leasesIssued      *metrics.Counter
	leaseStreams      *metrics.Counter

	inflightNow       atomic.Int64
	healthFailures    *metrics.LabeledCounter
	healthDegraded    *metrics.LabeledGauge
	admissionRejected *metrics.Counter

	windowPasses *metrics.LabeledCounter
	windowLanes  *metrics.LabeledCounter

	// respBufs is the free list of per-request chunk buffers of /bytes
	// and /stream responses, at most maxFreeRespBufs long. (A free list
	// rather than a sync.Pool: the race detector makes a Pool drop
	// items at random.)
	respBufs struct {
		sync.Mutex
		free [][]byte
	}
	respBufReused *metrics.Counter

	// testHookServing, when set, runs when a pooled request starts
	// serving — it lets tests freeze a request in flight.
	testHookServing func()
}

// engine is one served algorithm's: its gathered-pass window source,
// the pooled source that refills through it, and the count of POST
// /lease allocations, so one algorithm's lease domains do not depend on
// another's traffic.
type engine struct {
	ws     *core.WindowSource
	pooled *source
	leases atomic.Uint64
}

// New builds each served algorithm's engine and pooled source and
// registers the metric set.
func New(cfg Config) (*Server, error) {
	if cfg.Algorithms == nil {
		cfg.Algorithms = core.ServedAlgorithms
	}
	if len(cfg.Algorithms) == 0 {
		return nil, fmt.Errorf("server: no algorithms configured")
	}
	if cfg.MaxRequestBytes == 0 {
		cfg.MaxRequestBytes = 16 << 20
	}
	if cfg.MaxInflight < 0 {
		return nil, fmt.Errorf("server: max in-flight %d out of range", cfg.MaxInflight)
	}
	if cfg.MaxLeaseSegments == 0 {
		cfg.MaxLeaseSegments = 65536
	}
	if cfg.MaxLeaseSegments < 1 || uint64(cfg.MaxLeaseSegments) > maxLeaseSegmentsHard {
		return nil, fmt.Errorf("server: max lease segments %d out of range", cfg.MaxLeaseSegments)
	}
	for _, h := range []struct {
		name string
		v    int
	}{
		{"rct cutoff", cfg.Health.RCTCutoff},
		{"apt window", cfg.Health.APTWindow},
		{"apt cutoff", cfg.Health.APTCutoff},
		{"monobit slack", cfg.Health.MonobitSlack},
		{"longrun bits", cfg.Health.LongRunBits},
	} {
		if h.v < 0 {
			return nil, fmt.Errorf("server: health %s %d out of range", h.name, h.v)
		}
	}

	s := &Server{
		cfg:     cfg,
		engines: make(map[core.Algorithm]*engine, len(cfg.Algorithms)),
		reg:     metrics.NewRegistry(),
		mux:     http.NewServeMux(),
	}
	s.limits = Limits{
		MaxBytes:         cfg.MaxRequestBytes,
		MaxLeaseSegments: cfg.MaxLeaseSegments,
		Served: func(alg core.Algorithm) bool {
			_, ok := s.engines[alg]
			return ok
		},
	}
	s.bytesServed = s.reg.NewCounter("bsrngd_bytes_served_total",
		"Random bytes delivered to clients.")
	s.requests = s.reg.NewLabeledCounter("bsrngd_requests_total",
		"Requests to /bytes by algorithm and HTTP status.", "alg", "status")
	s.checkoutLat = s.reg.NewHistogram("bsrngd_shard_checkout_seconds",
		"Time a pooled request waited for its algorithm's pooled source, summed over its chunks; one observation per request.",
		[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1})
	s.pooledPasses = s.reg.NewCounter("bsrngd_engine_chunks_produced_total",
		"64-segment passes generated by the pooled sources.")
	s.healthFailures = s.reg.NewLabeledCounter("bsrngd_health_failures_total",
		"Segments condemned by the continuous online health tests, by algorithm and test.",
		"alg", "test")
	s.healthDegraded = s.reg.NewLabeledGauge("bsrngd_health_degraded",
		"1 while the algorithm's pooled source is degraded by consecutive condemned segments, else 0.", "alg")
	s.admissionRejected = s.reg.NewCounter("bsrngd_admission_rejected_total",
		"Requests shed with 429 by MaxInflight admission control.")
	s.streamRequests = s.reg.NewLabeledCounter("bsrngd_stream_requests_total",
		"Requests to /stream by algorithm, mode (pooled, addressed, lease) and HTTP status.",
		"alg", "mode", "status")
	s.streamBytes = s.reg.NewCounter("bsrngd_stream_bytes_total",
		"Bytes delivered over /stream responses.")
	s.streamChunks = s.reg.NewCounter("bsrngd_stream_chunks_flushed_total",
		"Chunks written and flushed on /stream responses.")
	s.streamOpen = s.reg.NewGauge("bsrngd_stream_open",
		"Currently open /stream responses.")
	s.streamDisconnects = s.reg.NewCounter("bsrngd_stream_disconnects_total",
		"Streams ended before their byte budget: client disconnect, drain or a degraded source.")
	s.leaseRequests = s.reg.NewLabeledCounter("bsrngd_lease_requests_total",
		"Requests to the lease endpoints by algorithm and HTTP status.", "alg", "status")
	s.leasesIssued = s.reg.NewCounter("bsrngd_leases_issued_total",
		"Segment leases issued by POST /lease.")
	s.leaseStreams = s.reg.NewCounter("bsrngd_lease_streams_total",
		"Stream requests addressed through a lease token.")
	s.respBufReused = s.reg.NewCounter("bsrngd_response_buffers_reused_total",
		"Per-request response buffers reused from the free list instead of freshly allocated.")
	s.windowPasses = s.reg.NewLabeledCounter("bsrngd_window_passes_total",
		"64-lane passes run by the algorithm's engine, its window source: pooled refills and addressed and lease /stream windows, by algorithm.", "alg")
	s.windowLanes = s.reg.NewLabeledCounter("bsrngd_window_lanes_total",
		"Lanes of the algorithm's engine passes that served a segment demand (64 per pooled refill), by algorithm; lanes / (64 × passes) is the lane occupancy.", "alg")
	s.reg.NewGaugeFunc("bsrngd_inflight_requests",
		"Concurrent /bytes and /stream requests currently being served.",
		func() float64 { return float64(s.inflightNow.Load()) })

	for _, alg := range cfg.Algorithms {
		if _, dup := s.engines[alg]; dup {
			return nil, fmt.Errorf("server: algorithm %v configured twice", alg)
		}
		algL := alg.String()
		passes, lanes := s.windowPasses.With(algL), s.windowLanes.With(algL)
		ws, err := core.NewWindowSource(alg, cfg.Seed, func(n int) {
			passes.Inc()
			lanes.Add(uint64(n))
		})
		if err != nil {
			return nil, err
		}
		s.engines[alg] = &engine{ws: ws, pooled: newSource(s, alg, ws)}
	}
	s.reg.NewGaugeFunc("bsrngd_health_segments_checked_total",
		"Segments evaluated by the continuous health tests across all pooled sources.",
		func() float64 {
			var sum uint64
			for _, e := range s.engines {
				sum += e.pooled.health().SegmentsChecked
			}
			return float64(sum)
		})

	s.mux.HandleFunc("GET /bytes", s.serve(EndpointBytes))
	s.mux.HandleFunc("GET /stream", s.serve(EndpointStream))
	s.mux.HandleFunc("POST /lease", s.handleLeaseCreate)
	s.mux.HandleFunc("GET /lease/{id}", s.handleLeaseGet)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// enter registers an in-flight request unless the server is draining.
func (s *Server) enter() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	return true
}

// Shutdown drains the service: new /bytes, /stream and /healthz
// requests get 503 and in-flight requests run to completion (an open
// /stream ends at its next chunk boundary). If ctx expires first,
// Shutdown returns the context error without waiting further. Shutdown
// is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return nil
	}
	done := make(chan struct{})
	//bsrng:lint-ignore goroutine-hygiene WaitGroup-to-channel adapter: Wait cannot select, and the goroutine's lifetime is bounded by the in-flight requests Shutdown is draining
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	return nil
}

// healthzResponse is the /healthz document: overall status plus the
// per-algorithm pooled source state.
type healthzResponse struct {
	// Status is "ok", "degraded" (some algorithm's pooled source is
	// degraded) or "draining" (shutdown in progress). The non-ok states
	// respond 503.
	Status string                  `json:"status"`
	Pools  map[string]sourceHealth `json:"pools"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()

	resp := healthzResponse{Status: "ok", Pools: make(map[string]sourceHealth, len(s.engines))}
	for alg, e := range s.engines {
		e.pooled.probe()
		h := e.pooled.health()
		resp.Pools[alg.String()] = h
		if h.Degraded {
			resp.Status = "degraded"
		}
	}
	if draining {
		resp.Status = "draining"
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if resp.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteText(w)
}
