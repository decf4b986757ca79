package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/server"
)

// Router is bsrngd's cluster tier (bsrngd -router -ring ring.json): an
// HTTP front end that forwards /bytes, /stream, POST /lease and
// GET /lease/{id} to the ring owner of the request's address, with
// health-aware failover through the ring's successor order. Addressed
// and leased requests are byte-identical on every node sharing the
// seed, so any replica is a sound fallback; pooled requests (no
// deterministic address) are spread round-robin across healthy nodes.
//
// Failure handling: a forward attempt that dies on transport error or a
// retryable status (502/503/504) moves to the next candidate after
// retryBackoff (25ms), one attempt per node of the ring the request
// routes on, within retryBudget (10s) — but only until the first
// response byte has been forwarded; an interrupted stream is the
// client's to resume (lease tokens + off= make that exact, see
// DESIGN.md §13). A background prober polls every node's
// /healthz so dead nodes are demoted to last-resort candidates between
// failures. Everything is counted in the bsrngd_cluster_* metric
// family.
//
// The ring is swappable at runtime (SIGHUP → ReloadFromFile): requests
// in flight keep the ring they started with, and the reload's probe-key
// movement estimate is exported so operators see the rebalance cost.
//
// Serve and Shutdown run the router on its own http.Server with the
// node's drain (server.Server): Shutdown marks the router draining, so
// routed requests that reach it get 503, /healthz says "draining" and a
// relayed /stream ends after its current upstream read with a clean end
// of body (the client resumes with off=), then closes the listener and
// waits out the requests in flight.
type Router struct {
	ring     atomic.Pointer[Ring]
	ringPath string
	reg      *metrics.Registry
	mux      *http.ServeMux
	hs       *http.Server
	draining atomic.Bool // set by Shutdown

	// The timings start as the package constants and the transport as
	// NewRouter's; in-package tests shorten or replace them before
	// serving.
	backoff, probeEvery, probeTimeout time.Duration
	transport                         http.RoundTripper
	rr                                atomic.Uint64 // pooled-spread rotation cursor

	mu    sync.Mutex // guards states map mutation (reload adds nodes)
	state map[string]*nodeState

	// baseCtx is the root of every router-originated request (health
	// probes) and the prober's stop signal; baseCancel, on Close, stops
	// the prober and aborts any probe in flight, so a probe stuck in a
	// slow dial cannot delay shutdown by its full timeout.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	probes     sync.WaitGroup

	forwarded   *metrics.LabeledCounter
	requests    *metrics.LabeledCounter
	failures    *metrics.LabeledCounter
	retries     *metrics.Counter
	failovers   *metrics.Counter
	exhausted   *metrics.Counter
	proxiedB    *metrics.Counter
	nodeUp      *metrics.LabeledGauge
	ringNodes   *metrics.Gauge
	ringReloads *metrics.Counter
	movedKeys   *metrics.Counter
	ringShare   *metrics.LabeledGauge
}

// nodeState is the router's health view of one node.
type nodeState struct {
	down atomic.Bool // optimistic: nodes start up
}

// RouterConfig names the router's membership.
type RouterConfig struct {
	// Ring is the initial membership (required).
	Ring *Ring
	// RingPath, when set, is the config file ReloadFromFile re-reads
	// (cmd/bsrngd wires SIGHUP to it).
	RingPath string
}

// The router's timings.
const (
	// retryBackoff is the delay between forward attempts.
	retryBackoff = 25 * time.Millisecond
	// retryBudget bounds the total time spent failing over one request
	// before giving up with 502.
	retryBudget = 10 * time.Second
	// probeInterval is the node health poll period.
	probeInterval = 2 * time.Second
	// probeTimeout bounds one /healthz probe.
	probeTimeout = time.Second
)

// probeSampleKeys sizes the deterministic key sample behind the
// rebalance and ring-share accounting.
const probeSampleKeys = 2048

// errForwardFault is the injected forward failure
// (failpoint cluster.forward.fail.<endpoint>).
var errForwardFault = errors.New("cluster: injected forward fault")

// NewRouter validates the config and builds the router (call Start to
// begin health probing, Close to stop it).
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Ring == nil {
		return nil, fmt.Errorf("cluster: router needs a ring")
	}
	rt := &Router{
		ringPath:     cfg.RingPath,
		reg:          metrics.NewRegistry(),
		mux:          http.NewServeMux(),
		state:        make(map[string]*nodeState),
		backoff:      retryBackoff,
		probeEvery:   probeInterval,
		probeTimeout: probeTimeout,
		transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			MaxIdleConns:          256,
			MaxIdleConnsPerHost:   64,
			IdleConnTimeout:       30 * time.Second,
			ResponseHeaderTimeout: 30 * time.Second,
		},
	}
	rt.baseCtx, rt.baseCancel = context.WithCancel(context.Background())

	rt.forwarded = rt.reg.NewLabeledCounter("bsrngd_cluster_forwarded_total",
		"Requests forwarded to a node, by node and endpoint.", "node", "endpoint")
	rt.requests = rt.reg.NewLabeledCounter("bsrngd_cluster_requests_total",
		"Routed requests by endpoint and HTTP status returned to the client.",
		"endpoint", "status")
	rt.failures = rt.reg.NewLabeledCounter("bsrngd_cluster_forward_failures_total",
		"Forward attempts that failed (transport error, retryable status, injected fault), by node.",
		"node")
	rt.retries = rt.reg.NewCounter("bsrngd_cluster_retries_total",
		"Forward attempts beyond the first for one request.")
	rt.failovers = rt.reg.NewCounter("bsrngd_cluster_failovers_total",
		"Requests served by a node other than the ring owner.")
	rt.exhausted = rt.reg.NewCounter("bsrngd_cluster_exhausted_total",
		"Requests that ran out of candidates or retry budget (502 to the client).")
	rt.proxiedB = rt.reg.NewCounter("bsrngd_cluster_proxied_bytes_total",
		"Response body bytes relayed from nodes to clients.")
	rt.nodeUp = rt.reg.NewLabeledGauge("bsrngd_cluster_node_up",
		"1 while the node's last /healthz probe (or forward) succeeded, else 0.", "node")
	rt.ringNodes = rt.reg.NewGauge("bsrngd_cluster_ring_nodes",
		"Nodes in the active ring.")
	rt.ringReloads = rt.reg.NewCounter("bsrngd_cluster_ring_reloads_total",
		"Ring reloads applied (SIGHUP or SetRing).")
	rt.movedKeys = rt.reg.NewCounter("bsrngd_cluster_rebalance_keys_moved_total",
		"Probe keys (of a 2048-key deterministic sample per reload) whose owner changed.")
	rt.ringShare = rt.reg.NewLabeledGauge("bsrngd_cluster_ring_share_permille",
		"Per-node ownership share of the probe-key sample, in permille.", "node")

	rt.installRing(cfg.Ring)
	rt.ring.Store(cfg.Ring)

	rt.mux.HandleFunc("GET /bytes", rt.proxy(server.EndpointBytes))
	rt.mux.HandleFunc("GET /stream", rt.proxy(server.EndpointStream))
	rt.mux.HandleFunc("POST /lease", rt.proxy(server.EndpointLease))
	rt.mux.HandleFunc("GET /lease/{id}", rt.proxy(server.EndpointLease))
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.hs = &http.Server{Handler: rt.mux}
	return rt, nil
}

// Handler returns the router's HTTP handler, for callers that serve it
// on an http.Server of their own. Shutdown does not wait for the
// requests such a server has in flight.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Serve accepts connections on ln until Shutdown, and then returns
// http.ErrServerClosed.
func (rt *Router) Serve(ln net.Listener) error { return rt.hs.Serve(ln) }

// Shutdown drains the router: it marks the router draining, so routed
// requests that reach it get 503 and a relayed /stream ends after its
// current upstream read, then closes Serve's listener and waits for the
// requests in flight. If ctx expires first, Shutdown returns the
// context error without waiting further. It does not stop the prober
// (Close does). Shutdown is idempotent.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.draining.Store(true)
	return rt.hs.Shutdown(ctx)
}

// Ring returns the active ring.
func (rt *Router) Ring() *Ring { return rt.ring.Load() }

// Start launches the background node prober.
func (rt *Router) Start() {
	rt.probes.Add(1)
	go rt.probeLoop()
}

// Close stops the prober, cancelling any probe already in flight.
// Idempotent.
func (rt *Router) Close() {
	rt.baseCancel()
	rt.probes.Wait()
}

// SetRing swaps the membership: in-flight requests keep the ring they
// started with, new requests route on the new one. The probe-key
// movement count and per-node shares are re-exported so the rebalance
// cost is visible on /metrics.
func (rt *Router) SetRing(nr *Ring) {
	old := rt.ring.Load()
	rt.installRing(nr)
	rt.ring.Store(nr)
	rt.ringReloads.Inc()
	rt.movedKeys.Add(uint64(MovedKeys(old, nr, probeSampleKeys)))
}

// ReloadFromFile re-reads RingPath and applies the ring (the SIGHUP
// handler of bsrngd -router).
func (rt *Router) ReloadFromFile() error {
	if rt.ringPath == "" {
		return fmt.Errorf("cluster: router has no ring path to reload from")
	}
	nr, err := LoadRing(rt.ringPath)
	if err != nil {
		return err
	}
	rt.SetRing(nr)
	return nil
}

// installRing registers state + gauges for the ring's nodes.
func (rt *Router) installRing(r *Ring) {
	rt.mu.Lock()
	for _, n := range r.Nodes() {
		if rt.state[n.Name] == nil {
			rt.state[n.Name] = &nodeState{}
		}
	}
	rt.mu.Unlock()
	rt.ringNodes.Set(int64(len(r.Nodes())))
	shares := r.shares(probeSampleKeys)
	for name, cnt := range shares {
		rt.ringShare.With(name).Set(int64(cnt * 1000 / probeSampleKeys))
	}
	for _, n := range r.Nodes() {
		rt.setUpGauge(n.Name)
	}
}

// nodeState returns (creating if needed) the health record for a node.
func (rt *Router) nodeState(name string) *nodeState {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st := rt.state[name]
	if st == nil {
		st = &nodeState{}
		rt.state[name] = st
	}
	return st
}

func (rt *Router) setUpGauge(name string) {
	v := int64(1)
	if rt.nodeState(name).down.Load() {
		v = 0
	}
	rt.nodeUp.With(name).Set(v)
}

// markDown demotes a node after a failed forward or probe.
func (rt *Router) markDown(name string) {
	rt.nodeState(name).down.Store(true)
	rt.nodeUp.With(name).Set(0)
}

// markUp restores a node after a successful forward or probe.
func (rt *Router) markUp(name string) {
	rt.nodeState(name).down.Store(false)
	rt.nodeUp.With(name).Set(1)
}

// probeLoop polls every ring node's /healthz every probeEvery until
// Close.
func (rt *Router) probeLoop() {
	defer rt.probes.Done()
	tick := time.NewTicker(rt.probeEvery)
	defer tick.Stop()
	for {
		select {
		case <-rt.baseCtx.Done():
			return
		case <-tick.C:
			rt.probeAll()
		}
	}
}

// probeAll checks each node once. Status 200 means serving; anything
// else (degraded, draining, unreachable) demotes the node to a
// last-resort candidate until it recovers.
func (rt *Router) probeAll() {
	for _, n := range rt.ring.Load().Nodes() {
		ctx, cancel := context.WithTimeout(rt.baseCtx, rt.probeTimeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/healthz", http.NoBody)
		if err != nil {
			cancel()
			rt.markDown(n.Name)
			continue
		}
		resp, err := rt.transport.RoundTrip(req)
		if err != nil {
			cancel()
			rt.markDown(n.Name)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		cancel()
		if resp.StatusCode == http.StatusOK {
			rt.markUp(n.Name)
		} else {
			rt.markDown(n.Name)
		}
	}
}

// routeLimits let the router's parse accept every algorithm and size:
// the serving node enforces its own limits, the router only needs the
// request's address.
var routeLimits = server.Limits{MaxBytes: math.MaxInt64, MaxLeaseSegments: math.MaxInt}

// routeKey extracts the ownership key of a request. Queries go through
// the serving layer's own parser and key on the canonical algorithm
// name, so every spelling of one algorithm has one owner. nil means the
// request names no deterministic address (pooled /bytes or /stream) and
// is spread instead of ring-routed. Unparseable requests also return
// nil — the serving node produces the canonical error.
func (rt *Router) routeKey(r *http.Request, endpoint string, ring *Ring) *Key {
	if id := r.PathValue("id"); id != "" { // GET /lease/{id}
		l, err := server.DecodeLeaseToken(id)
		if err != nil {
			return nil
		}
		k := ring.Key(l.Alg.String(), l.Domain, l.StartSegment)
		return &k
	}
	q, herr := server.ParseQuery(r, endpoint, routeLimits)
	switch {
	case herr != nil:
		return nil
	case endpoint == server.EndpointLease:
		// Lease allocation anchors on a per-algorithm key so one node's
		// counter serializes all allocations for that algorithm — no two
		// nodes ever hand out overlapping lease domains (DESIGN.md §13).
		k := ring.Key(q.Alg.String(), 0, 0)
		return &k
	case q.Mode == server.ModePooled:
		return nil
	}
	k := ring.Key(q.Alg.String(), q.Domain, q.Offset/core.SegmentBytes)
	return &k
}

// candidates orders the nodes to try: the ring walk from the key (owner
// first) for addressed requests, a round-robin rotation for pooled
// ones — in both cases with down nodes demoted to the tail as last
// resorts (any node may have recovered since its last probe).
func (rt *Router) candidates(ring *Ring, key *Key) []Node {
	var order []Node
	if key != nil {
		order = ring.Candidates(*key)
	} else {
		nodes := ring.Nodes()
		start := int(rt.rr.Add(1)-1) % len(nodes)
		order = make([]Node, 0, len(nodes))
		for i := 0; i < len(nodes); i++ {
			order = append(order, nodes[(start+i)%len(nodes)])
		}
	}
	up := make([]Node, 0, len(order))
	down := make([]Node, 0)
	for _, n := range order {
		if rt.nodeState(n.Name).down.Load() {
			down = append(down, n)
		} else {
			up = append(up, n)
		}
	}
	return append(up, down...)
}

// retryableStatus reports whether a node response should trigger
// failover instead of being relayed: the node-side "can't serve right
// now" statuses (drain, a degraded pooled source, gateway trouble).
func retryableStatus(code int) bool {
	return code == http.StatusBadGateway ||
		code == http.StatusServiceUnavailable ||
		code == http.StatusGatewayTimeout
}

// proxy builds the forwarding handler for one endpoint family.
func (rt *Router) proxy(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if rt.draining.Load() {
			rt.requests.With(endpoint, strconv.Itoa(http.StatusServiceUnavailable)).Inc()
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		ring := rt.ring.Load()
		key := rt.routeKey(r, endpoint, ring)
		cands := rt.candidates(ring, key)
		owner := cands[0].Name
		if key != nil {
			owner = ring.Owner(*key).Name
		}
		deadline := time.Now().Add(retryBudget)

		var lastErr error
		for i, node := range cands {
			if i > 0 {
				rt.retries.Inc()
				select {
				case <-r.Context().Done():
					rt.requests.With(endpoint, "499").Inc()
					return
				case <-time.After(rt.backoff):
				}
				if time.Now().After(deadline) {
					break
				}
			}
			resp, err := rt.attempt(node, endpoint, r)
			if err != nil {
				rt.failures.With(node.Name).Inc()
				if !errors.Is(err, errForwardFault) {
					rt.markDown(node.Name)
				}
				lastErr = fmt.Errorf("node %s: %w", node.Name, err)
				continue
			}
			if retryableStatus(resp.StatusCode) && i+1 < len(cands) && time.Now().Before(deadline) {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				rt.failures.With(node.Name).Inc()
				lastErr = fmt.Errorf("node %s: status %d", node.Name, resp.StatusCode)
				continue
			}
			rt.markUp(node.Name)
			if node.Name != owner {
				rt.failovers.Inc()
			}
			rt.forwarded.With(node.Name, endpoint).Inc()
			rt.requests.With(endpoint, strconv.Itoa(resp.StatusCode)).Inc()
			rt.relay(w, r, resp, node)
			return
		}
		rt.exhausted.Inc()
		rt.requests.With(endpoint, strconv.Itoa(http.StatusBadGateway)).Inc()
		msg := "cluster: no node could serve the request"
		if lastErr != nil {
			msg += ": " + lastErr.Error()
		}
		http.Error(w, msg, http.StatusBadGateway)
	}
}

// attempt forwards the request to one node. None of the routed
// endpoints carries a request body (POST /lease is query-only), so
// attempts are trivially replayable.
func (rt *Router) attempt(node Node, endpoint string, r *http.Request) (*http.Response, error) {
	if faultinject.Hit("cluster.forward.fail." + endpoint) {
		return nil, errForwardFault
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method,
		node.URL+r.URL.RequestURI(), http.NoBody)
	if err != nil {
		return nil, err
	}
	return rt.transport.RoundTrip(req)
}

// relay copies the node response to the client, flushing per read so
// /stream chunks keep their as-generated delivery through the router.
// A body of unknown length (a /stream) ends after the current read once
// the router is draining; a body with a Content-Length runs to its end.
func (rt *Router) relay(w http.ResponseWriter, r *http.Request, resp *http.Response, node Node) {
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	h.Set("X-Bsrng-Cluster-Node", node.Name)
	w.WriteHeader(resp.StatusCode)
	var flush func()
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return // client went away; the node sees the cancel via ctx
			}
			rt.proxiedB.Add(uint64(n))
			if flush != nil {
				flush()
			}
		}
		if err != nil {
			return // io.EOF, node died mid-body, or client ctx canceled
		}
		if resp.ContentLength < 0 && rt.draining.Load() {
			return
		}
	}
}

// routerHealthz is the router's /healthz document.
type routerHealthz struct {
	// Status is "ok" (all nodes up), "degraded" (some down, still
	// serving), "down" (no node up) or "draining" (shutdown in
	// progress). "down" and "draining" respond 503.
	Status string              `json:"status"`
	Nodes  []routerHealthzNode `json:"nodes"`
	Ring   routerHealthzRing   `json:"ring"`
}

type routerHealthzNode struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	Up   bool   `json:"up"`
}

type routerHealthzRing struct {
	Nodes         int    `json:"nodes"`
	VirtualNodes  int    `json:"virtual_nodes"`
	SegmentWindow uint64 `json:"segment_window"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ring := rt.ring.Load()
	nodes := ring.Nodes()
	doc := routerHealthz{
		Status: "ok",
		Nodes:  make([]routerHealthzNode, 0, len(nodes)),
		Ring: routerHealthzRing{
			Nodes:         len(nodes),
			VirtualNodes:  ring.VirtualNodes(),
			SegmentWindow: ring.SegmentWindow(),
		},
	}
	up := 0
	for _, n := range nodes {
		ok := !rt.nodeState(n.Name).down.Load()
		if ok {
			up++
		}
		doc.Nodes = append(doc.Nodes, routerHealthzNode{Name: n.Name, URL: n.URL, Up: ok})
	}
	switch {
	case up == 0:
		doc.Status = "down"
	case up < len(nodes):
		doc.Status = "degraded"
	}
	if rt.draining.Load() {
		doc.Status = "draining"
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if doc.Status == "down" || doc.Status == "draining" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.reg.WriteText(w)
}
