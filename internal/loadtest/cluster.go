package loadtest

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/server"
)

// ClusterConfig boots an N-node bsrngd cluster behind an in-process
// consistent-hash router and drives the whole workload through the
// router. Every node runs the same Server config (and seed), so routed
// and failed-over windows verify against the library exactly like
// single-node ones — the cluster soak proves the router tier preserves
// the determinism contract end to end. Boot mode only.
type ClusterConfig struct {
	// Nodes is the cluster size (default 3). The ring takes the
	// cluster package's default virtual nodes and segment window.
	Nodes int
	// ForwardChaos, when non-nil, pulses router forward-failure
	// failpoints while the load runs.
	ForwardChaos *ForwardChaosConfig
}

// ForwardChaosConfig pulses the cluster.forward.fail.stream failpoint
// during a cluster run: each pulse kills exactly one forward attempt,
// which the router must absorb with a retry — the client still sees 200
// and the exact bytes, so a chaos run's window digest matches a calm
// run's. Only the stream endpoint is faulted: lease allocation anchors
// on the per-algorithm ring owner, and failing it over would not change
// any bytes but would be pointless noise in the allocation path.
type ForwardChaosConfig struct {
	// FailpointSeed makes the trigger hits reproducible; pulse i derives
	// its trigger from FailpointSeed+i, drawn from the first
	// forwardChaosWindow hits.
	FailpointSeed uint64
	// Pulses is how many single-shot forward faults to fire (default 4).
	Pulses int
}

// The forward chaos driver's timing.
const (
	// forwardChaosWindow is the hit window each pulse's trigger is drawn
	// from.
	forwardChaosWindow = 8
	// pulseTimeout bounds the wait for each pulse to fire.
	pulseTimeout = 30 * time.Second
)

// ClusterReport accounts one cluster run from the router's
// bsrngd_cluster_* metrics.
type ClusterReport struct {
	Nodes int `json:"nodes"`
	// Retries/Failovers/ForwardFailures are the router counter values at
	// the end of the run.
	Retries         float64 `json:"retries"`
	Failovers       float64 `json:"failovers"`
	ForwardFailures float64 `json:"forward_failures"`
	// ForwardPulses is how many injected forward faults fired.
	ForwardPulses int `json:"forward_pulses,omitempty"`
}

// forwardFailpoint is the failpoint the cluster chaos driver pulses.
const forwardFailpoint = "cluster.forward.fail.stream"

// bootCluster starts Nodes in-process daemons sharing cfg.Server, a
// ring over them, and the router the run will dial; it returns the
// shutdown hook. The router's prober runs so node health is tracked
// exactly as in production.
func (r *runner) bootCluster() (func(), error) {
	cc := r.cfg.Cluster
	var shutdowns []func(ctx context.Context)
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), r.cfg.Timeout)
		defer cancel()
		for i := len(shutdowns) - 1; i >= 0; i-- {
			shutdowns[i](ctx)
		}
	}

	nodes := make([]cluster.Node, cc.Nodes)
	for i := 0; i < cc.Nodes; i++ {
		srv, err := server.New(r.cfg.Server)
		if err != nil {
			shutdown()
			return nil, fmt.Errorf("loadtest: booting cluster node %d: %w", i, err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			shutdown()
			return nil, fmt.Errorf("loadtest: %w", err)
		}
		go srv.Serve(ln)
		shutdowns = append(shutdowns, func(ctx context.Context) { srv.Shutdown(ctx) })
		nodes[i] = cluster.Node{Name: fmt.Sprintf("n%d", i), URL: "http://" + ln.Addr().String()}
	}

	ring, err := cluster.NewRing(cluster.RingConfig{Nodes: nodes})
	if err != nil {
		shutdown()
		return nil, fmt.Errorf("loadtest: %w", err)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Ring: ring})
	if err != nil {
		shutdown()
		return nil, fmt.Errorf("loadtest: %w", err)
	}
	rt.Start()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rt.Close()
		shutdown()
		return nil, fmt.Errorf("loadtest: %w", err)
	}
	go rt.Serve(rln)
	shutdowns = append(shutdowns, func(ctx context.Context) {
		rt.Shutdown(ctx)
		rt.Close()
	})

	r.base = "http://" + rln.Addr().String()
	r.seed = r.cfg.Server.Seed
	return shutdown, nil
}

// runForwardChaos pulses the forward failpoint: single-shot arm, wait
// for the fire (keeping stream traffic flowing so a hit happens even if
// the clients finish early), re-arm for the next pulse. Every fired
// fault forces the router through its retry path under live load.
func (r *runner) runForwardChaos() (int, error) {
	if !faultinject.Available() {
		return 0, fmt.Errorf("loadtest: forward chaos requested but faultinject is compiled out")
	}
	fc := r.cfg.Cluster.ForwardChaos
	defer faultinject.Disarm(forwardFailpoint)

	for p := 0; p < fc.Pulses; p++ {
		nth := faultinject.ArmSeeded(forwardFailpoint, fc.FailpointSeed+uint64(p), forwardChaosWindow)
		r.cfg.Logf("loadtest: forward chaos pulse %d: %s armed at hit %d", p, forwardFailpoint, nth)
		// Re-arming reset the point's counters: this pulse has fired once
		// Fired ticks to 1.
		deadline := time.Now().Add(pulseTimeout)
		for faultinject.Fired(forwardFailpoint) == 0 {
			if time.Now().After(deadline) {
				return p, fmt.Errorf("loadtest: forward chaos pulse %d never fired", p)
			}
			r.primeStream()
			time.Sleep(2 * time.Millisecond)
		}
	}
	return fc.Pulses, nil
}

// primeStream issues one small addressed stream request outside the
// recorded workload, so an armed forward fault always has traffic to
// strike even after the deterministic clients drain. The window it
// pulls is NOT folded into the digest — chaos priming must not change
// the run's reported window multiset.
func (r *runner) primeStream() {
	resp, err := r.client.Get(fmt.Sprintf("%s/stream?alg=%s&domain=1&segment=1&n=2048", r.base, r.algs[0]))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// clusterReport reads the router's own accounting off its /metrics.
func (r *runner) clusterReport(pulses int) *ClusterReport {
	body := r.metricsBody()
	return &ClusterReport{
		Nodes:           r.cfg.Cluster.Nodes,
		Retries:         metricSum(body, "bsrngd_cluster_retries_total "),
		Failovers:       metricSum(body, "bsrngd_cluster_failovers_total "),
		ForwardFailures: metricSum(body, "bsrngd_cluster_forward_failures_total{"),
		ForwardPulses:   pulses,
	}
}

// perNode builds the per-node forwarded-request distribution from the
// router's bsrngd_cluster_forwarded_total{node,endpoint} samples. Works
// against any router — the booted one or a dialed one; nil when the
// base URL is a plain node (no cluster metrics exposed).
func (r *runner) perNode() map[string]int64 {
	body := r.metricsBody()
	if body == "" {
		return nil
	}
	const fam = "bsrngd_cluster_forwarded_total{"
	var dist map[string]int64
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, fam) {
			continue
		}
		node, v, ok := parseNodeSample(line[len(fam)-1:])
		if !ok {
			continue
		}
		if dist == nil {
			dist = make(map[string]int64)
		}
		dist[node] += v
	}
	return dist
}

// parseNodeSample extracts (node label, value) from a labeled sample
// like `{node="n0",endpoint="bytes"} 12`.
func parseNodeSample(s string) (string, int64, bool) {
	const key = `node="`
	i := strings.Index(s, key)
	if i < 0 {
		return "", 0, false
	}
	rest := s[i+len(key):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		return "", 0, false
	}
	node := rest[:j]
	sp := strings.LastIndexByte(s, ' ')
	if sp < 0 {
		return "", 0, false
	}
	var v int64
	if _, err := fmt.Sscanf(s[sp+1:], "%d", &v); err != nil {
		return "", 0, false
	}
	return node, v, true
}
