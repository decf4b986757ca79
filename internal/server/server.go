// Package server is bsrngd's serving layer: an HTTP front end over a
// sharded pool of deterministic core.Stream worker pools — the paper's
// bitsliced engines operated as a bulk entropy service. Each algorithm
// gets its own shard set; requests check a shard out (round-robin),
// stream bytes from it, and return it. Everything is instrumented
// through internal/metrics and exposed on /metrics.
//
// Every shard stream runs the continuous online health tests of
// internal/health against each produced segment. A shard whose stream
// trips repeated failures is quarantined: ejected from rotation,
// reseeded in the background, re-admitted only after a clean probation
// pass. /healthz degrades to 503 while any algorithm's pool is fully
// quarantined, and optional admission control (MaxInflight) sheds load
// with 429 + Retry-After while the pool is shrunk.
//
// Endpoints:
//
//	GET /bytes?alg=mickey&n=1024[&hex=1]  — n pseudo-random bytes
//	GET /stream?alg=&n=                   — chunked streaming delivery,
//	                                        flushed per chunk; addressed
//	                                        mode via segment=/domain=/
//	                                        off=/lanes=, resumable lease
//	                                        mode via lease=&off=
//	POST /lease?alg=&segments=            — issue a segment lease (a
//	                                        stateless token over the
//	                                        deterministic address space)
//	GET /lease/{id}                       — resolve a lease token
//	GET /healthz                          — per-algorithm pool state as
//	                                        JSON; 200 ok / 503 degraded
//	                                        or draining
//	GET /metrics                          — text exposition
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/metrics"
)

// Config tunes the service; zero values select the documented defaults.
type Config struct {
	// Seed is the deterministic base seed. Shard 0 of every algorithm
	// serves exactly the byte stream of core.NewStream(alg, Seed, ...).
	Seed uint64
	// Algorithms to serve; nil means core.ServedAlgorithms.
	Algorithms []core.Algorithm
	// ShardsPerAlg is the number of independent streams per algorithm
	// (default 2). More shards = more concurrent pooled requests per
	// algorithm before checkout blocks.
	ShardsPerAlg int
	// WorkersPerShard is the core.Stream worker count per shard
	// (default: NumCPU spread evenly over all shards, min 1).
	WorkersPerShard int
	// StagingBytes is the per-worker chunk size (default 64 KiB).
	StagingBytes int
	// Lanes is the engine lane width of every shard stream: any value in
	// core.SupportedLanes is accepted (default core.DefaultLanes). Every
	// width runs the 64-lane datapath, so the served bytes are identical.
	Lanes int
	// MaxRequestBytes caps n on /bytes and /stream, and is a /stream's
	// default n (default 16 MiB).
	MaxRequestBytes int64
	// RequestTimeout bounds shard checkout + generation (default 30s).
	RequestTimeout time.Duration
	// MaxInflight caps concurrent requests across /bytes and /stream;
	// excess requests get 429 with a Retry-After header instead of
	// queueing on checkout. A long-lived /stream holds one slot for its
	// whole duration. 0 disables admission control.
	MaxInflight int
	// MaxLeaseSegments caps the window of one segment lease (default
	// 65536 segments = 128 MiB; also the default window when POST /lease
	// names no size).
	MaxLeaseSegments int
	// DisableHealth turns off the continuous online health tests (and
	// with them shard quarantine). They are ON by default: healthy
	// engines never trip the cutoffs, so the served bytes are unchanged.
	DisableHealth bool
	// Health overrides the per-test cutoffs (zero fields = defaults;
	// see health.Config).
	Health health.Config
	// QuarantineAfter is the number of consecutive checkouts observing
	// new health failures before a shard is quarantined (default 3).
	QuarantineAfter int
	// ProbationSegments is the number of clean segments a reseeded
	// shard must produce before re-admission (default 4).
	ProbationSegments int
	// ProbationInterval is the delay between failed probation attempts
	// (default 1s).
	ProbationInterval time.Duration
}

// Server owns the shard pools, the metrics registry and the HTTP mux.
type Server struct {
	cfg    Config
	limits Limits // the bounds ParseQuery enforces for this server
	pools  map[core.Algorithm]*pool
	// windows serve the bytes of addressed and lease /stream requests:
	// one gathered-pass source per algorithm, shared by every request
	// and built on first use (see windowSource).
	windowsMu sync.Mutex
	windows   map[core.Algorithm]*core.WindowSource
	reg       *metrics.Registry
	mux       *http.ServeMux

	mu       sync.RWMutex // guards draining against inflight.Add
	draining bool
	inflight sync.WaitGroup

	bytesServed   *metrics.Counter
	requests      *metrics.LabeledCounter
	checkoutLat   *metrics.Histogram
	streamsActive *metrics.Gauge
	shardsBusy    *metrics.Gauge

	streamRequests    *metrics.LabeledCounter
	streamBytes       *metrics.Counter
	streamChunks      *metrics.Counter
	streamOpen        *metrics.Gauge
	streamDisconnects *metrics.Counter
	leaseRequests     *metrics.LabeledCounter
	leasesIssued      *metrics.Counter
	leaseStreams      *metrics.Counter
	leaseCounter      atomic.Uint64

	inflightNow       atomic.Int64
	healthFailures    *metrics.LabeledCounter
	healthQuarantines *metrics.LabeledCounter
	healthReseeds     *metrics.LabeledCounter
	healthReadmits    *metrics.LabeledCounter
	healthQuarantined *metrics.LabeledGauge
	admissionRejected *metrics.Counter

	windowPasses *metrics.LabeledCounter
	windowLanes  *metrics.LabeledCounter

	// respBufs recycles the per-request chunk buffer of addressed and
	// lease /stream responses (pooled responses stream shard chunks
	// zero-copy via WriteTo and need no buffer). Get returns nil on a
	// cold pool.
	respBufs      sync.Pool
	respBufReused *metrics.Counter

	// testHookServing, when set, runs while a pooled request holds its
	// shard — it lets tests freeze a request in flight.
	testHookServing func()
}

// New builds the pools and registers the metric set.
func New(cfg Config) (*Server, error) {
	if cfg.Algorithms == nil {
		cfg.Algorithms = core.ServedAlgorithms
	}
	if len(cfg.Algorithms) == 0 {
		return nil, fmt.Errorf("server: no algorithms configured")
	}
	if cfg.ShardsPerAlg == 0 {
		cfg.ShardsPerAlg = 2
	}
	if cfg.ShardsPerAlg < 1 {
		return nil, fmt.Errorf("server: shards per algorithm %d out of range", cfg.ShardsPerAlg)
	}
	if cfg.WorkersPerShard == 0 {
		cfg.WorkersPerShard = runtime.NumCPU() / (len(cfg.Algorithms) * cfg.ShardsPerAlg)
		if cfg.WorkersPerShard < 1 {
			cfg.WorkersPerShard = 1
		}
	}
	if cfg.MaxRequestBytes == 0 {
		cfg.MaxRequestBytes = 16 << 20
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 30 * time.Second
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
	if cfg.QuarantineAfter == 0 {
		cfg.QuarantineAfter = 3
	}
	if cfg.QuarantineAfter < 1 {
		return nil, fmt.Errorf("server: quarantine-after %d out of range", cfg.QuarantineAfter)
	}
	if cfg.ProbationSegments == 0 {
		cfg.ProbationSegments = 4
	}
	if cfg.ProbationSegments < 1 {
		return nil, fmt.Errorf("server: probation segments %d out of range", cfg.ProbationSegments)
	}
	if cfg.ProbationInterval == 0 {
		cfg.ProbationInterval = time.Second
	}

	s := &Server{
		cfg:     cfg,
		pools:   make(map[core.Algorithm]*pool, len(cfg.Algorithms)),
		windows: make(map[core.Algorithm]*core.WindowSource, len(cfg.Algorithms)),
		reg:     metrics.NewRegistry(),
		mux:     http.NewServeMux(),
	}
	s.limits = Limits{
		MaxBytes:         cfg.MaxRequestBytes,
		MaxLeaseSegments: cfg.MaxLeaseSegments,
		Served: func(alg core.Algorithm) bool {
			_, ok := s.pools[alg]
			return ok
		},
	}
	s.bytesServed = s.reg.NewCounter("bsrngd_bytes_served_total",
		"Random bytes delivered to clients.")
	s.requests = s.reg.NewLabeledCounter("bsrngd_requests_total",
		"Requests to /bytes by algorithm and HTTP status.", "alg", "status")
	s.checkoutLat = s.reg.NewHistogram("bsrngd_shard_checkout_seconds",
		"Time spent acquiring a stream shard.",
		[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1})
	s.streamsActive = s.reg.NewGauge("bsrngd_streams_active",
		"Live core.Stream pools (shards) across all algorithms.")
	s.shardsBusy = s.reg.NewGauge("bsrngd_shards_busy",
		"Shards currently checked out by requests.")
	s.healthFailures = s.reg.NewLabeledCounter("bsrngd_health_failures_total",
		"Segments condemned by the continuous online health tests, by algorithm and test.",
		"alg", "test")
	s.healthQuarantines = s.reg.NewLabeledCounter("bsrngd_health_quarantines_total",
		"Shards ejected from rotation after repeated health failures.", "alg")
	s.healthReseeds = s.reg.NewLabeledCounter("bsrngd_health_reseeds_total",
		"Background shard stream reseeds attempted during rehabilitation.", "alg")
	s.healthReadmits = s.reg.NewLabeledCounter("bsrngd_health_readmits_total",
		"Quarantined shards re-admitted after a clean probation pass.", "alg")
	s.healthQuarantined = s.reg.NewLabeledGauge("bsrngd_health_quarantined_shards",
		"Shards currently quarantined.", "alg")
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
		"Streams ended before their byte budget: client disconnect, drain or pool shutdown.")
	s.leaseRequests = s.reg.NewLabeledCounter("bsrngd_lease_requests_total",
		"Requests to the lease endpoints by algorithm and HTTP status.", "alg", "status")
	s.leasesIssued = s.reg.NewCounter("bsrngd_leases_issued_total",
		"Segment leases issued by POST /lease.")
	s.leaseStreams = s.reg.NewCounter("bsrngd_lease_streams_total",
		"Stream requests addressed through a lease token.")
	s.respBufReused = s.reg.NewCounter("bsrngd_response_buffers_reused_total",
		"Per-request response buffers reused from the pool instead of freshly allocated.")
	s.windowPasses = s.reg.NewLabeledCounter("bsrngd_window_passes_total",
		"Gathered 64-lane passes run for addressed and lease /stream windows, by algorithm.", "alg")
	s.windowLanes = s.reg.NewLabeledCounter("bsrngd_window_lanes_total",
		"Lanes of gathered passes that served a window segment, by algorithm; lanes / (64 × passes) is the lane occupancy.", "alg")
	s.reg.NewGaugeFunc("bsrngd_inflight_requests",
		"Concurrent /bytes and /stream requests currently being served.",
		func() float64 { return float64(s.inflightNow.Load()) })

	for _, alg := range cfg.Algorithms {
		if _, dup := s.pools[alg]; dup {
			return nil, fmt.Errorf("server: algorithm %v configured twice", alg)
		}
		algL := alg.String()
		s.healthQuarantined.With(algL).Set(0)
		p, err := newPool(poolConfig{
			alg:               alg,
			seed:              cfg.Seed,
			shards:            cfg.ShardsPerAlg,
			workers:           cfg.WorkersPerShard,
			staging:           cfg.StagingBytes,
			lanes:             cfg.Lanes,
			healthOff:         cfg.DisableHealth,
			healthCfg:         cfg.Health,
			quarantineAfter:   cfg.QuarantineAfter,
			probationSegments: cfg.ProbationSegments,
			probationInterval: cfg.ProbationInterval,
			onFailure:         func(test string) { s.healthFailures.With(algL, test).Inc() },
			onQuarantine: func() {
				s.healthQuarantines.With(algL).Inc()
				s.healthQuarantined.With(algL).Add(1)
			},
			onReseed: func() { s.healthReseeds.With(algL).Inc() },
			onReadmit: func() {
				s.healthReadmits.With(algL).Inc()
				s.healthQuarantined.With(algL).Add(-1)
			},
		})
		if err != nil {
			s.closePools()
			return nil, err
		}
		s.pools[alg] = p
	}
	s.streamsActive.Set(int64(len(cfg.Algorithms) * cfg.ShardsPerAlg))
	s.reg.NewGaugeFunc("bsrngd_engine_chunks_produced_total",
		"Staging chunks produced by stream workers, summed over shards.",
		func() float64 { return float64(s.poolStats().ChunksProduced) })
	s.reg.NewGaugeFunc("bsrngd_engine_bytes_delivered_total",
		"Bytes delivered by stream Read, summed over shards.",
		func() float64 { return float64(s.poolStats().BytesDelivered) })
	s.reg.NewGaugeFunc("bsrngd_engine_recycle_hits_total",
		"Staging buffers recycled from the free list, summed over shards.",
		func() float64 { return float64(s.poolStats().RecycleHits) })
	s.reg.NewGaugeFunc("bsrngd_health_segments_checked_total",
		"Segments evaluated by the continuous health tests across all pools.",
		func() float64 {
			var sum uint64
			for _, p := range s.pools {
				sum += p.healthSnapshot().SegmentsChecked
			}
			return float64(sum)
		})
	s.reg.NewGaugeFunc("bsrngd_health_engine_reseeds_total",
		"In-stream engine reseeds triggered by condemned segments, summed over shards.",
		func() float64 { return float64(s.poolStats().EngineReseeds) })

	s.mux.HandleFunc("GET /bytes", s.serve(EndpointBytes))
	s.mux.HandleFunc("GET /stream", s.serve(EndpointStream))
	s.mux.HandleFunc("POST /lease", s.handleLeaseCreate)
	s.mux.HandleFunc("GET /lease/{id}", s.handleLeaseGet)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// windowSource returns alg's gathered-pass window source, building it on
// first use: a lease token may name any algorithm, served or not, and
// only the algorithms requests actually name pay for a keyed cipher.
func (s *Server) windowSource(alg core.Algorithm) (*core.WindowSource, error) {
	s.windowsMu.Lock()
	defer s.windowsMu.Unlock()
	if ws := s.windows[alg]; ws != nil {
		return ws, nil
	}
	algL := alg.String()
	passes, lanes := s.windowPasses.With(algL), s.windowLanes.With(algL)
	ws, err := core.NewWindowSource(alg, s.cfg.Seed, func(n int) {
		passes.Inc()
		lanes.Add(uint64(n))
	})
	if err != nil {
		return nil, err
	}
	s.windows[alg] = ws
	return ws, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) poolStats() core.StreamStats {
	var sum core.StreamStats
	for _, p := range s.pools {
		st := p.stats()
		sum.ChunksProduced += st.ChunksProduced
		sum.BytesDelivered += st.BytesDelivered
		sum.RecycleHits += st.RecycleHits
	}
	return sum
}

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
// requests get 503, in-flight requests run to completion (an open
// /stream ends at its next chunk boundary), then the stream pools are
// closed. If ctx expires first the pools are closed anyway, cutting
// stragglers short (their stream reads return core.ErrClosed), and the
// context error is returned. Shutdown is idempotent.
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
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.closePools()
	s.streamsActive.Set(0)
	return err
}

func (s *Server) closePools() {
	for _, p := range s.pools {
		p.close()
	}
}

// healthzResponse is the /healthz document: overall status plus the
// per-algorithm pool state.
type healthzResponse struct {
	// Status is "ok", "degraded" (some algorithm's pool is fully
	// quarantined) or "draining" (shutdown in progress). The non-ok
	// states respond 503.
	Status string                `json:"status"`
	Pools  map[string]poolHealth `json:"pools"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()

	resp := healthzResponse{Status: "ok", Pools: make(map[string]poolHealth, len(s.pools))}
	for alg, p := range s.pools {
		resp.Pools[alg.String()] = p.healthSnapshot()
		if p.fullyQuarantined() {
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
