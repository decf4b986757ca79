package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/loadtest"
	"repro/internal/server"
)

// daemonSeed is the seed every bsrngd of the HTTP workloads serves; every
// other server setting stays at its default (health on, 2 shards per
// algorithm, 64 lanes).
const daemonSeed = 42

// The HTTP workloads replay the traffic the repository's own load cells
// drive: `make loadtest` is `loadgen -clients 16 -requests 8 -verify`, the
// default 1:1:1 mix of 4 KiB /bytes (every fourth one hex), 8 KiB /stream
// (pooled and addressed alternately) and 4-segment lease round trips, and
// `make loadtest-cluster` sends the same through a router in front of 3
// nodes. Each batch is one such loadtest.Run, dialling the benchmark's own
// (optionally traced) stack, restricted to one algorithm as `-algs` does.
const (
	batchClients  = 16
	batchRequests = 8
	clusterNodes  = 3
)

// verifyEvery is the share of batches replayed with verification on after
// the timed window: one in verifyEvery.
const verifyEvery = 16

// stack is one or more in-process bsrngd daemons on loopback TCP, and, with
// more than one, a cluster router in front of them.
type stack struct {
	srvs    []*server.Server
	rt      *cluster.Router
	servers []*http.Server
	wg      sync.WaitGroup
	nodes   []string // daemon base URLs
	front   string   // where clients connect: the router, or the only daemon
}

// newStack boots nodes daemons, behind a router when nodes > 1. With a
// tracer, every daemon handler is wrapped as layer "server" and the router
// as layer "router".
func newStack(nodes int, tr *tracer) (*stack, error) {
	st := &stack{}
	var members []cluster.Node
	for i := 0; i < nodes; i++ {
		srv, err := server.New(server.Config{Seed: daemonSeed})
		if err != nil {
			st.close()
			return nil, err
		}
		st.srvs = append(st.srvs, srv)
		url, err := st.serve(srv.Handler(), "server", tr)
		if err != nil {
			st.close()
			return nil, err
		}
		st.nodes = append(st.nodes, url)
		members = append(members, cluster.Node{Name: "n" + strconv.Itoa(i), URL: url})
	}
	st.front = st.nodes[0]
	if nodes == 1 {
		return st, nil
	}
	ring, err := cluster.NewRing(cluster.RingConfig{Nodes: members})
	if err == nil {
		st.rt, err = cluster.NewRouter(cluster.RouterConfig{Ring: ring})
	}
	if err == nil {
		st.rt.Start()
		st.front, err = st.serve(st.rt.Handler(), "router", tr)
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stack) serve(h http.Handler, layer string, tr *tracer) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	if tr != nil {
		h = tr.wrap(layer, h)
	}
	hs := &http.Server{Handler: h}
	st.servers = append(st.servers, hs)
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		// Serve returns http.ErrServerClosed once close shuts it down;
		// any earlier failure shows up as failed requests.
		hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// close shuts the front ends down (router first), waits for their serve
// loops, then stops the router's prober and drains the daemons.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(st.servers) - 1; i >= 0; i-- {
		st.servers[i].Shutdown(ctx)
	}
	st.wg.Wait()
	if st.rt != nil {
		st.rt.Close()
	}
	for _, srv := range st.srvs {
		srv.Shutdown(ctx)
	}
}

// get fetches base+uri and returns the body of a 200 response.
func get(base, uri string) ([]byte, error) {
	resp, err := http.Get(base + uri)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d: %.200s", uri, resp.StatusCode, body)
	}
	return body, err
}

// scrape reads the unlabelled samples of a /metrics page.
func scrape(base string) (map[string]float64, error) {
	body, err := get(base, "/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range bytes.Split(body, []byte("\n")) {
		f := bytes.Fields(line)
		if len(f) != 2 || f[0][0] == '#' || bytes.IndexByte(f[0], '{') >= 0 {
			continue
		}
		if v, err := strconv.ParseFloat(string(f[1]), 64); err == nil {
			out[string(f[0])] = v
		}
	}
	return out, nil
}

// batch names one loadtest.Run: its algorithm and its workload seed.
type batch struct {
	alg   int
	wseed uint64
}

// httpSystem is an HTTP workload's system: a stack and the batches sent
// to it so far.
type httpSystem struct {
	st     *stack
	seed   uint64
	next   int     // index of the next batch
	replay []batch // batches to re-run with verification after the window
}

func setupHTTP(nodes int) func(uint64, [][]byte, *tracer, *tally) (system, error) {
	return func(seed uint64, ref [][]byte, tr *tracer, tl *tally) (system, error) {
		st, err := newStack(nodes, tr)
		if err != nil {
			return nil, err
		}
		// Each daemon's first pooled /bytes of an algorithm comes from its
		// shard 0, whose stream is domain 1 of the daemon seed.
		const n = 4096
		for a, alg := range algs {
			tl.attempted++
			body, err := get(st.front, "/bytes?alg="+alg.String()+"&n="+strconv.Itoa(n))
			switch {
			case err != nil:
				tl.fail("set-up: %v", err)
			case !bytes.Equal(body, ref[a][:n]):
				tl.fail("set-up: first %d bytes of %v differ from NewSegmentReader", n, alg)
			}
		}
		return &httpSystem{st: st, seed: seed}, nil
	}
}

// run sends one batch and accounts it in w.
func (h *httpSystem) run(b batch, verify bool, w *window) {
	res, err := loadtest.Run(loadtest.Config{
		BaseURL: h.st.front, Clients: batchClients, RequestsPerClient: batchRequests,
		Algorithms: []core.Algorithm{algs[b.alg]}, WorkloadSeed: b.wseed,
		Verify: verify, VerifySeed: daemonSeed,
	})
	if err != nil {
		w.tally.attempted++
		w.tally.fail("loadtest batch %+v: %v", b, err)
		return
	}
	w.tally.attempted += int(res.Requests)
	if bad := res.NonOK + res.Rejected429 + res.ZeroRuns + res.VerifyMismatches; bad > 0 {
		w.tally.failN(int(bad), "loadtest batch %+v (%v): statuses %v, %d zero runs, %d verification mismatches",
			b, algs[b.alg], res.Statuses, res.ZeroRuns, res.VerifyMismatches)
	}
	var latency float64
	for _, l := range res.Latency {
		latency += l.MeanMs * float64(l.Count)
	}
	w.add(b.alg, res.BytesRead, time.Duration(res.Seconds*float64(time.Second)), int(res.Requests),
		time.Duration(latency*float64(time.Millisecond)))
}

// measure sends batches back to back, rotating over the algorithms,
// until d has passed; the batch in flight at the deadline completes and
// counts.
func (h *httpSystem) measure(d time.Duration) window {
	w := newWindow()
	start := time.Now()
	for time.Since(start) < d {
		seq := draw{s: h.seed ^ uint64(h.next)<<32}
		b := batch{alg: h.next % len(algs), wseed: seq.next()}
		if h.next%verifyEvery == 0 {
			h.replay = append(h.replay, b)
		}
		h.next++
		h.run(b, false, &w)
	}
	w.elapsed = time.Since(start)
	return w
}

// verify re-runs one batch in verifyEvery with loadtest's verification
// on: every addressed and leased window is regenerated with
// core.NewSegmentReader and compared byte for byte.
func (h *httpSystem) verify(t *tally) {
	w := newWindow()
	for _, b := range h.replay {
		h.run(b, true, &w)
	}
	h.replay = nil
	t.merge(w.tally)
}

func (h *httpSystem) close() { h.st.close() }
