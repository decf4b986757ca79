// Package loadtest is the load-generation and soak-test harness for the
// bsrngd serving stack: it drives N concurrent clients with a mixed,
// deterministic workload — pooled /bytes (binary and hex), pooled and
// addressed /stream, and lease-issue/stream/resume round trips — against
// a daemon it boots in-process or dials over HTTP, and reports status
// counts, throughput and per-shape latency histograms in a
// machine-readable Result (cmd/loadgen serializes it as LOAD.json).
//
// Every client's behavior is a pure function of (WorkloadSeed, client
// index), so two runs of the same Config pull the same set of addressed
// and leased windows. Those windows are verified byte-for-byte against
// the core library (Verify), scanned for zero runs that would betray a
// condemned segment leaking to a client, and folded into an
// order-insensitive digest so whole runs can be compared across
// processes and daemon restarts.
//
// The harness composes with internal/faultinject (Chaos): while clients
// hammer the daemon, a seeded failpoint corrupts every segment of one
// algorithm's pooled source until the skipped segments degrade it, then
// heals so the source recovers — repeated for a configured number of
// cycles, with every phase transition observed through /healthz and
// /metrics. Through a cluster (ClusterConfig.ForwardChaos) it instead
// pulses single forward faults inside the router. The only settings of
// either driver are its seed and its count of cycles or pulses: a cycle
// draws its trigger from the first 32 failpoint hits and waits at most
// 30s per phase, a pulse from the first 8 and at most 30s to fire.
package loadtest

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// Mix weights the request shapes of the workload. Zero values fall back
// to an even three-way mix.
type Mix struct {
	// Bytes is the weight of pooled /bytes requests (every fourth one
	// asks for hex).
	Bytes int `json:"bytes"`
	// Stream is the weight of /stream requests (alternating pooled and
	// addressed mode).
	Stream int `json:"stream"`
	// Lease is the weight of lease round trips: POST /lease, stream the
	// first half of the window, resume the rest from off=.
	Lease int `json:"lease"`
}

func (m Mix) total() int { return m.Bytes + m.Stream + m.Lease }

// ChaosConfig arms seeded segment-corruption failpoints while the load
// runs. Boot mode only: failpoints are process-local.
type ChaosConfig struct {
	// FailpointSeed makes the trigger hits reproducible; cycle i derives
	// its trigger from FailpointSeed+i, drawn from the first chaosWindow
	// hits.
	FailpointSeed uint64
	// Cycles is how many corrupt → degrade → heal → recover cycles to
	// drive to completion (default 1).
	Cycles int
}

// The segment chaos driver's timing.
const (
	// chaosWindow is the hit window each cycle's trigger is drawn from.
	chaosWindow = 32
	// phaseTimeout bounds each phase transition wait.
	phaseTimeout = 30 * time.Second
)

// Config tunes one load run; zero values select the documented defaults.
type Config struct {
	// BaseURL dials an already-running daemon (e.g. "http://host:8080").
	// Empty boots a server in-process on a loopback listener.
	BaseURL string
	// Server configures the booted daemon (BaseURL == ""). Its Seed
	// doubles as the verification seed.
	Server server.Config
	// Clients is the number of concurrent clients (default 8).
	Clients int
	// RequestsPerClient is how many requests each client issues
	// (default 8).
	RequestsPerClient int
	// Mix weights the request shapes.
	Mix Mix
	// Algorithms to exercise; nil derives them from Server.Algorithms,
	// falling back to all served engines.
	Algorithms []core.Algorithm
	// BytesN is n per /bytes request (default 4096).
	BytesN int64
	// StreamN is n per /stream request (default 8192).
	StreamN int64
	// LeaseSegments is the window of each issued lease (default 4).
	LeaseSegments int
	// Verify re-derives every addressed and leased window through
	// core.NewSegmentReader and compares byte-for-byte. Requires the
	// daemon's seed: Server.Seed in boot mode, VerifySeed in dial mode.
	Verify bool
	// VerifySeed is the daemon's seed for dial-mode verification.
	VerifySeed uint64
	// WorkloadSeed makes every client's request sequence deterministic
	// (default 1).
	WorkloadSeed uint64
	// Timeout bounds each HTTP request (default 30s).
	Timeout time.Duration
	// Chaos, when non-nil, drives fault-injection cycles during the run.
	// Its 503s, expected while a cycle holds a pooled source degraded,
	// are excluded from the non-OK count.
	Chaos *ChaosConfig
	// Cluster, when non-nil, boots an N-node cluster behind an
	// in-process consistent-hash router (internal/cluster) and drives
	// the whole workload through the router. Boot mode only, and
	// mutually exclusive with Chaos (whose driver polls a single node's
	// healthz).
	Cluster *ClusterConfig
	// Logf receives progress lines (default: discard).
	Logf func(format string, args ...any)
}

// Result is the machine-readable outcome of one run (LOAD.json).
type Result struct {
	Mode     string `json:"mode"` // "boot" or "dial"
	Clients  int    `json:"clients"`
	Requests int64  `json:"requests"`
	// Statuses counts responses by HTTP status; transport failures count
	// under "error".
	Statuses map[string]int64 `json:"statuses"`
	// NonOK counts non-2xx responses excluding intended sheds: 429
	// always, 503 in a chaos run.
	NonOK int64 `json:"non_ok"`
	// Rejected429 counts admission-control sheds.
	Rejected429 int64 `json:"rejected_429"`
	// Unavailable503 counts 503s (drain or a pooled source with no
	// healthy segment).
	Unavailable503 int64   `json:"unavailable_503"`
	BytesRead      int64   `json:"bytes_read"`
	Seconds        float64 `json:"seconds"`
	ThroughputMBps float64 `json:"throughput_mbps"`
	// Latency holds one histogram summary per request shape
	// ("bytes", "stream", "lease").
	Latency map[string]LatencySummary `json:"latency"`
	// VerifiedWindows / VerifyMismatches account the byte-for-byte
	// library cross-check of addressed and leased windows.
	VerifiedWindows  int64 `json:"verified_windows"`
	VerifyMismatches int64 `json:"verify_mismatches"`
	// ZeroRuns counts bodies containing ≥64 consecutive zero bytes — a
	// condemned segment leaking to a client.
	ZeroRuns int64 `json:"zero_runs"`
	// WindowDigest is an order-insensitive digest (XOR of per-window
	// SHA-256) over every addressed and leased window pulled. With a
	// fixed Config and a single algorithm it is identical across runs
	// and restarts.
	WindowDigest string       `json:"window_digest"`
	Chaos        *ChaosReport `json:"chaos,omitempty"`
	// PerNode is the router's forwarded-request distribution by node
	// (from bsrngd_cluster_forwarded_total) — cluster mode, or dial mode
	// against a router.
	PerNode map[string]int64 `json:"per_node,omitempty"`
	// Cluster accounts the router tier of a cluster run.
	Cluster *ClusterReport `json:"cluster,omitempty"`
}

// ChaosReport accounts the fault-injection cycles of a chaos run.
type ChaosReport struct {
	Algorithm string `json:"alg"`
	Cycles    int    `json:"cycles"`
	// Skipped is the run's growth of bsrngd_health_failures_total for
	// the algorithm: the segments its pooled source condemned and
	// skipped.
	Skipped float64 `json:"skipped_segments"`
}

// leaseDoc mirrors the JSON of POST /lease.
type leaseDoc struct {
	ID           string `json:"id"`
	Algorithm    string `json:"alg"`
	Domain       uint64 `json:"domain"`
	StartSegment uint64 `json:"start_segment"`
	Segments     uint64 `json:"segments"`
	Bytes        uint64 `json:"bytes"`
	StreamPath   string `json:"stream_path"`
}

// runner is the shared state of one Run.
type runner struct {
	cfg    Config
	base   string
	client *http.Client
	algs   []core.Algorithm
	seed   uint64 // verification seed

	requests atomic.Int64
	bytes    atomic.Int64
	nonOK    atomic.Int64
	rej429   atomic.Int64
	un503    atomic.Int64
	verified atomic.Int64
	mismatch atomic.Int64
	zeroRuns atomic.Int64

	statusMu sync.Mutex
	statuses map[string]int64

	histMu sync.Mutex
	hists  map[string]*latHist

	digestMu sync.Mutex
	digest   [sha256.Size]byte
}

// Run executes the configured load and returns its Result.
func Run(cfg Config) (*Result, error) {
	if cfg.Clients == 0 {
		cfg.Clients = 8
	}
	if cfg.Clients < 1 {
		return nil, fmt.Errorf("loadtest: clients %d out of range", cfg.Clients)
	}
	if cfg.RequestsPerClient == 0 {
		cfg.RequestsPerClient = 8
	}
	if cfg.Mix.total() == 0 {
		cfg.Mix = Mix{Bytes: 1, Stream: 1, Lease: 1}
	}
	if cfg.Mix.Bytes < 0 || cfg.Mix.Stream < 0 || cfg.Mix.Lease < 0 {
		return nil, fmt.Errorf("loadtest: negative mix weight %+v", cfg.Mix)
	}
	if cfg.BytesN == 0 {
		cfg.BytesN = 4096
	}
	if cfg.StreamN == 0 {
		cfg.StreamN = 8192
	}
	if cfg.LeaseSegments == 0 {
		cfg.LeaseSegments = 4
	}
	if cfg.WorkloadSeed == 0 {
		cfg.WorkloadSeed = 1
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Chaos != nil && cfg.Chaos.Cycles == 0 {
		cfg.Chaos.Cycles = 1
	}
	if cfg.Cluster != nil {
		if cfg.Chaos != nil {
			return nil, fmt.Errorf("loadtest: segment chaos drives a single node's healthz; use Cluster.ForwardChaos against a cluster")
		}
		if cfg.Cluster.Nodes == 0 {
			cfg.Cluster.Nodes = 3
		}
		if cfg.Cluster.Nodes < 1 {
			return nil, fmt.Errorf("loadtest: cluster nodes %d out of range", cfg.Cluster.Nodes)
		}
		if fc := cfg.Cluster.ForwardChaos; fc != nil && fc.Pulses == 0 {
			fc.Pulses = 4
		}
	}

	r := &runner{
		cfg:      cfg,
		seed:     cfg.VerifySeed,
		statuses: make(map[string]int64),
		hists:    make(map[string]*latHist),
	}

	mode := "dial"
	if cfg.BaseURL == "" && cfg.Cluster != nil {
		mode = "cluster"
		shutdown, err := r.bootCluster()
		if err != nil {
			return nil, err
		}
		defer shutdown()
	} else if cfg.BaseURL == "" {
		mode = "boot"
		srv, err := server.New(cfg.Server)
		if err != nil {
			return nil, fmt.Errorf("loadtest: booting server: %w", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			srv.Shutdown(context.Background())
			return nil, fmt.Errorf("loadtest: %w", err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
			defer cancel()
			hs.Shutdown(ctx)
			srv.Shutdown(ctx)
		}()
		r.base = "http://" + ln.Addr().String()
		r.seed = cfg.Server.Seed
	} else {
		if cfg.Chaos != nil {
			return nil, fmt.Errorf("loadtest: chaos requires boot mode (failpoints are process-local)")
		}
		if cfg.Cluster != nil {
			return nil, fmt.Errorf("loadtest: cluster topology requires boot mode (use BaseURL to dial an external router)")
		}
		r.base = cfg.BaseURL
	}

	r.algs = cfg.Algorithms
	if r.algs == nil {
		r.algs = cfg.Server.Algorithms
	}
	if r.algs == nil {
		r.algs = core.ServedAlgorithms
	}
	r.client = &http.Client{
		Timeout: cfg.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Clients + 8,
			MaxIdleConnsPerHost: cfg.Clients + 8,
			IdleConnTimeout:     30 * time.Second,
		},
	}
	defer r.client.CloseIdleConnections()

	cfg.Logf("loadtest: %s %s: %d clients × %d requests, mix %+v",
		mode, r.base, cfg.Clients, cfg.RequestsPerClient, cfg.Mix)

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r.clientLoop(c)
		}(c)
	}
	var chaosRep *ChaosReport
	var chaosErr error
	if cfg.Chaos != nil {
		chaosRep, chaosErr = r.runChaos()
	}
	var fcPulses int
	var fcErr error
	if cfg.Cluster != nil && cfg.Cluster.ForwardChaos != nil {
		fcPulses, fcErr = r.runForwardChaos()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if chaosErr != nil {
		return nil, chaosErr
	}
	if fcErr != nil {
		return nil, fcErr
	}

	res := &Result{
		Mode:             mode,
		Clients:          cfg.Clients,
		Requests:         r.requests.Load(),
		Statuses:         r.statuses,
		NonOK:            r.nonOK.Load(),
		Rejected429:      r.rej429.Load(),
		Unavailable503:   r.un503.Load(),
		BytesRead:        r.bytes.Load(),
		Seconds:          elapsed.Seconds(),
		VerifiedWindows:  r.verified.Load(),
		VerifyMismatches: r.mismatch.Load(),
		ZeroRuns:         r.zeroRuns.Load(),
		WindowDigest:     fmt.Sprintf("%x", r.digest),
		Latency:          make(map[string]LatencySummary, len(r.hists)),
		Chaos:            chaosRep,
	}
	if res.Seconds > 0 {
		res.ThroughputMBps = float64(res.BytesRead) / (1 << 20) / res.Seconds
	}
	for shape, h := range r.hists {
		res.Latency[shape] = h.summary()
	}
	if cfg.Cluster != nil {
		res.Cluster = r.clusterReport(fcPulses)
	}
	// The per-node distribution materializes whenever the dialed base is
	// a router (always in cluster mode); against a plain node it is nil.
	res.PerNode = r.perNode()
	cfg.Logf("loadtest: %d requests, %d non-OK, %.1f MB/s, digest %s",
		res.Requests, res.NonOK, res.ThroughputMBps, res.WindowDigest[:16])
	return res, nil
}

// clientLoop runs one deterministic client: its shape and parameter
// choices depend only on (WorkloadSeed, index), never on timing.
func (r *runner) clientLoop(idx int) {
	rng := splitmixState(r.cfg.WorkloadSeed + uint64(idx)*0x9E3779B97F4A7C15)
	total := r.cfg.Mix.total()
	for i := 0; i < r.cfg.RequestsPerClient; i++ {
		pick := int(rng.next() % uint64(total))
		alg := r.algs[rng.next()%uint64(len(r.algs))]
		switch {
		case pick < r.cfg.Mix.Bytes:
			r.doBytes(&rng, alg)
		case pick < r.cfg.Mix.Bytes+r.cfg.Mix.Stream:
			r.doStream(&rng, alg)
		default:
			r.doLease(alg)
		}
	}
}

// record accounts one finished request.
func (r *runner) record(shape string, status int, d time.Duration, n int64) {
	r.requests.Add(1)
	r.bytes.Add(n)
	key := "error"
	if status > 0 {
		key = fmt.Sprintf("%d", status)
	}
	r.statusMu.Lock()
	r.statuses[key]++
	r.statusMu.Unlock()
	switch {
	case status == http.StatusTooManyRequests:
		r.rej429.Add(1)
	case status == http.StatusServiceUnavailable:
		r.un503.Add(1)
		if r.cfg.Chaos == nil {
			r.nonOK.Add(1)
		}
	case status < 200 || status > 299:
		r.nonOK.Add(1)
	}
	r.hist(shape).observe(d)
}

func (r *runner) hist(shape string) *latHist {
	r.histMu.Lock()
	defer r.histMu.Unlock()
	h, ok := r.hists[shape]
	if !ok {
		h = &latHist{}
		r.hists[shape] = h
	}
	return h
}

// fetch GETs url and returns (status, body); status 0 marks a transport
// failure. The body is scanned for zero runs unless skipScan (hex).
func (r *runner) fetch(shape, url string, skipScan bool) (int, []byte) {
	t0 := time.Now()
	resp, err := r.client.Get(url)
	if err != nil {
		r.record(shape, 0, time.Since(t0), 0)
		return 0, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	status := resp.StatusCode
	if err != nil {
		status = 0
	}
	r.record(shape, status, time.Since(t0), int64(len(body)))
	if status == http.StatusOK && !skipScan && hasZeroRun(body) {
		r.zeroRuns.Add(1)
	}
	return status, body
}

// doBytes pulls the pooled /bytes path; every fourth request uses hex.
func (r *runner) doBytes(rng *splitmixRNG, alg core.Algorithm) {
	url := fmt.Sprintf("%s/bytes?alg=%s&n=%d", r.base, alg, r.cfg.BytesN)
	hex := rng.next()%4 == 0
	if hex {
		url += "&hex=1"
	}
	r.fetch("bytes", url, hex)
}

// doStream alternates pooled and addressed /stream. Addressed windows
// are deterministic: verified against the library and folded into the
// run digest.
func (r *runner) doStream(rng *splitmixRNG, alg core.Algorithm) {
	if rng.next()%2 == 0 {
		r.fetch("stream", fmt.Sprintf("%s/stream?alg=%s&n=%d", r.base, alg, r.cfg.StreamN), false)
		return
	}
	domain := rng.next() % 16
	seg := rng.next() % 256
	off := rng.next() % core.SegmentBytes
	url := fmt.Sprintf("%s/stream?alg=%s&domain=%d&segment=%d&off=%d&n=%d",
		r.base, alg, domain, seg, off, r.cfg.StreamN)
	status, body := r.fetch("stream", url, false)
	if status == http.StatusOK {
		r.checkWindow(alg, domain, seg*core.SegmentBytes+off, body)
	}
}

// doLease issues a lease, streams the first half of its window, then
// resumes the rest from off= — the disconnect/resume shape — and checks
// the reassembled window.
func (r *runner) doLease(alg core.Algorithm) {
	t0 := time.Now()
	url := fmt.Sprintf("%s/lease?alg=%s&segments=%d", r.base, alg, r.cfg.LeaseSegments)
	resp, err := r.client.Post(url, "", nil)
	if err != nil {
		r.record("lease", 0, time.Since(t0), 0)
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	status := resp.StatusCode
	if err != nil {
		status = 0
	}
	r.record("lease", status, time.Since(t0), 0)
	if status != http.StatusCreated {
		return
	}
	var doc leaseDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		r.mismatch.Add(1)
		return
	}

	half := doc.Bytes / 2
	st1, part1 := r.fetch("lease", fmt.Sprintf("%s%s&n=%d", r.base, doc.StreamPath, half), false)
	st2, part2 := r.fetch("lease", fmt.Sprintf("%s%s&off=%d", r.base, doc.StreamPath, half), false)
	if st1 != http.StatusOK || st2 != http.StatusOK {
		return
	}
	window := append(part1, part2...)
	if uint64(len(window)) != doc.Bytes {
		r.mismatch.Add(1)
		return
	}
	algParsed, err := core.ParseAlgorithm(doc.Algorithm)
	if err != nil {
		r.mismatch.Add(1)
		return
	}
	r.checkWindow(algParsed, doc.Domain, doc.StartSegment*core.SegmentBytes, window)
}

// checkWindow verifies one deterministic window against the library
// (when Verify) and folds it into the order-insensitive run digest.
func (r *runner) checkWindow(alg core.Algorithm, domain, offset uint64, body []byte) {
	if r.cfg.Verify {
		src, err := core.NewSegmentReader(alg, r.seed, domain, 0, offset)
		if err != nil {
			r.mismatch.Add(1)
			return
		}
		want := make([]byte, len(body))
		if _, err := io.ReadFull(src, want); err != nil {
			r.mismatch.Add(1)
			return
		}
		r.verified.Add(1)
		if !bytes.Equal(body, want) {
			r.mismatch.Add(1)
			r.cfg.Logf("loadtest: VERIFY MISMATCH %s domain=%d offset=%d n=%d",
				alg, domain, offset, len(body))
			return
		}
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%d|%d|", alg, domain, offset, len(body))
	h.Write(body)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	r.digestMu.Lock()
	for i := range r.digest {
		r.digest[i] ^= sum[i]
	}
	r.digestMu.Unlock()
}

// hasZeroRun reports ≥64 consecutive zero bytes — astronomically
// improbable (2^-512) in healthy output, the signature of a condemned
// zero-filled segment reaching a client.
func hasZeroRun(b []byte) bool {
	run := 0
	for _, c := range b {
		if c != 0 {
			run = 0
			continue
		}
		if run++; run >= 64 {
			return true
		}
	}
	return false
}

// splitmixRNG is the deterministic per-client generator: the same
// full-period permutation internal/core uses for seed expansion.
type splitmixRNG struct{ x uint64 }

func splitmixState(seed uint64) splitmixRNG { return splitmixRNG{x: seed} }

func (r *splitmixRNG) next() uint64 {
	r.x += 0x9E3779B97F4A7C15
	z := r.x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
