package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// nodeCfg is the cheap single-algorithm node configuration the cluster
// tests boot; every node's pooled source serves exactly the canonical
// library stream.
func nodeCfg(seed uint64) server.Config {
	return server.Config{
		Seed:       seed,
		Algorithms: []core.Algorithm{core.GRAIN},
	}
}

// bootNodes starts n in-process bsrngd nodes sharing cfg (and its seed)
// and returns their HTTP servers plus ring membership entries.
func bootNodes(t *testing.T, n int, cfg server.Config) ([]*httptest.Server, []Node) {
	t.Helper()
	https := make([]*httptest.Server, n)
	nodes := make([]Node, n)
	for i := 0; i < n; i++ {
		s, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			s.Shutdown(context.Background())
		})
		https[i] = ts
		nodes[i] = Node{Name: fmt.Sprintf("n%d", i), URL: ts.URL}
	}
	return https, nodes
}

// bootRouter builds a router over the nodes, with a 1ms retry backoff
// and then mod's changes, and serves it. The prober is not started —
// tests drive probeAll directly where they need it.
func bootRouter(t *testing.T, nodes []Node, mod func(*Router)) (*Router, *httptest.Server) {
	t.Helper()
	ring, err := NewRing(RingConfig{VirtualNodes: 32, SegmentWindow: 1024, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	rt.backoff = time.Millisecond
	if mod != nil {
		mod(rt)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		ts.Close()
		rt.Close()
	})
	return rt, ts
}

func get(t *testing.T, url string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body, resp.Header
}

// metricValue extracts one sample from a /metrics exposition.
func metricValue(t *testing.T, body []byte, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len(name)+1:]), 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	return 0
}

func routerMetric(t *testing.T, routerURL, name string) float64 {
	t.Helper()
	_, body, _ := get(t, routerURL+"/metrics")
	return metricValue(t, body, name)
}

// libWindow reads n bytes of the canonical (alg, seed, domain) stream
// from absolute byte offset off.
func libWindow(t *testing.T, alg core.Algorithm, seed, domain, off uint64, n int) []byte {
	t.Helper()
	src, err := core.NewSegmentReader(alg, seed, domain, 0, off)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, n)
	if _, err := io.ReadFull(src, want); err != nil {
		t.Fatal(err)
	}
	return want
}

// The tentpole differential: a routed addressed /stream window is
// byte-identical to the library stream AND to the same request served
// directly by every node, from a mid-segment start. Determinism is what makes the router's failover sound, so this
// is the contract everything else leans on.
func TestRoutedAddressedStreamDifferential(t *testing.T) {
	const seed = 42
	https, nodes := bootNodes(t, 3, nodeCfg(seed))
	_, rts := bootRouter(t, nodes, nil)

	const (
		domain = 5
		seg    = 7
		off    = 1337 // mid-segment
		n      = 6000
	)
	abs := uint64(seg)*core.SegmentBytes + off
	want := libWindow(t, core.GRAIN, seed, domain, abs, n)

	q := fmt.Sprintf("/stream?alg=grain&domain=%d&segment=%d&off=%d&n=%d", domain, seg, off, n)
	status, body, hdr := get(t, rts.URL+q)
	if status != http.StatusOK {
		t.Fatalf("routed status %d", status)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("routed bytes diverge from library stream")
	}
	if hdr.Get("X-Bsrng-Cluster-Node") == "" {
		t.Error("no cluster node header")
	}
	// Every node — owner or not — serves the identical window.
	for i, ts := range https {
		st, direct, _ := get(t, ts.URL+q)
		if st != http.StatusOK {
			t.Fatalf("node %d: direct status %d", i, st)
		}
		if !bytes.Equal(direct, want) {
			t.Fatalf("node %d: direct bytes diverge", i)
		}
	}
}

// lanes= is ignored, by the router as by the nodes: beside segment=,
// whatever its value, a window has the owner and the bytes it has
// without it, routed and served directly.
func TestRoutedLanesParamIgnored(t *testing.T) {
	const seed = 42
	https, nodes := bootNodes(t, 3, nodeCfg(seed))
	rt, rts := bootRouter(t, nodes, nil)

	const q = "/stream?alg=grain&domain=5&segment=3000&off=9&n=5000"
	want := libWindow(t, core.GRAIN, seed, 5, 3000*core.SegmentBytes+9, 5000)
	ring := rt.Ring()
	owner := func(path string) string {
		k := rt.routeKey(httptest.NewRequest(http.MethodGet, path, nil), server.EndpointStream, ring)
		if k == nil {
			t.Fatalf("%s: no route key", path)
		}
		return ring.Owner(*k).Name
	}
	wantOwner := owner(q)
	for _, v := range []string{"64", "65", "256", "x", ""} {
		lq := q + "&lanes=" + v
		if got := owner(lq); got != wantOwner {
			t.Errorf("lanes=%q: owner %s, want %s", v, got, wantOwner)
		}
		status, body, hdr := get(t, rts.URL+lq)
		if status != http.StatusOK || !bytes.Equal(body, want) {
			t.Errorf("lanes=%q: routed status %d, body differs from the window without lanes=", v, status)
		}
		if got := hdr.Get("X-Bsrng-Cluster-Node"); got != wantOwner {
			t.Errorf("lanes=%q: served by %q, want the owner %s", v, got, wantOwner)
		}
		for i, ts := range https {
			if st, direct, _ := get(t, ts.URL+lq); st != http.StatusOK || !bytes.Equal(direct, want) {
				t.Errorf("lanes=%q node %d: direct status %d, body differs", v, i, st)
			}
		}
	}
}

// Routed pooled /bytes serves exactly the canonical stream prefix: the
// router picks a fresh node, and every fresh node's first pooled
// request is the library stream from byte 0.
func TestRoutedBytesMatchesDirectAndLibrary(t *testing.T) {
	const seed = 99
	https, nodes := bootNodes(t, 3, nodeCfg(seed))
	_, rts := bootRouter(t, nodes, nil)

	status, routed, hdr := get(t, rts.URL+"/bytes?alg=grain&n=4096")
	if status != http.StatusOK {
		t.Fatalf("routed status %d", status)
	}
	servedBy := hdr.Get("X-Bsrng-Cluster-Node")

	ref, err := core.NewStream(core.GRAIN, seed, core.StreamConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := make([]byte, 4096)
	if _, err := ref.Read(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(routed, want) {
		t.Fatal("routed /bytes diverges from library stream prefix")
	}

	// A direct first request against a node the router did NOT use is
	// the same prefix — any replica serves the same canonical stream.
	for i, ts := range https {
		if nodes[i].Name == servedBy {
			continue
		}
		st, direct, _ := get(t, ts.URL+"/bytes?alg=grain&n=4096")
		if st != http.StatusOK {
			t.Fatalf("direct status %d", st)
		}
		if !bytes.Equal(direct, want) {
			t.Fatal("direct node /bytes diverges from routed bytes")
		}
		break
	}
}

// leaseDoc mirrors the POST /lease JSON.
type leaseDoc struct {
	ID           string `json:"id"`
	Algorithm    string `json:"alg"`
	Domain       uint64 `json:"domain"`
	StartSegment uint64 `json:"start_segment"`
	Segments     uint64 `json:"segments"`
	Bytes        uint64 `json:"bytes"`
	StreamPath   string `json:"stream_path"`
}

func createLease(t *testing.T, base string, segments int) leaseDoc {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/lease?alg=grain&segments=%d", base, segments), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("lease status %d err %v", resp.StatusCode, err)
	}
	var doc leaseDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// Lease issue, resolve, stream and mid-window resume all work through
// the router, and the reassembled window is the library stream.
func TestLeaseRoundTripThroughRouter(t *testing.T) {
	const seed = 7
	_, nodes := bootNodes(t, 3, nodeCfg(seed))
	_, rts := bootRouter(t, nodes, nil)

	doc := createLease(t, rts.URL, 4)
	if doc.Bytes != 4*core.SegmentBytes {
		t.Fatalf("lease window %d bytes", doc.Bytes)
	}

	// GET /lease/{id} resolves the token through the router.
	status, raw, _ := get(t, rts.URL+"/lease/"+doc.ID)
	if status != http.StatusOK {
		t.Fatalf("lease resolve status %d", status)
	}
	var resolved leaseDoc
	if err := json.Unmarshal(raw, &resolved); err != nil {
		t.Fatal(err)
	}
	if resolved.Domain != doc.Domain || resolved.Segments != doc.Segments {
		t.Fatalf("resolved lease %+v differs from issued %+v", resolved, doc)
	}

	want := libWindow(t, core.GRAIN, seed, doc.Domain, doc.StartSegment*core.SegmentBytes, int(doc.Bytes))
	half := doc.Bytes / 2
	st1, part1, _ := get(t, fmt.Sprintf("%s%s&n=%d", rts.URL, doc.StreamPath, half))
	st2, part2, _ := get(t, fmt.Sprintf("%s%s&off=%d", rts.URL, doc.StreamPath, half))
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("stream statuses %d, %d", st1, st2)
	}
	if got := append(append([]byte(nil), part1...), part2...); !bytes.Equal(got, want) {
		t.Fatal("lease window reassembled through router diverges from library")
	}
}

// Pooled traffic spreads round-robin over healthy nodes.
func TestPooledSpreadAcrossNodes(t *testing.T) {
	_, nodes := bootNodes(t, 3, nodeCfg(1))
	_, rts := bootRouter(t, nodes, nil)

	for i := 0; i < 9; i++ {
		if status, _, _ := get(t, rts.URL+"/bytes?alg=grain&n=64"); status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
	}
	_, body, _ := get(t, rts.URL+"/metrics")
	for _, n := range nodes {
		sample := fmt.Sprintf(`bsrngd_cluster_forwarded_total{node=%q,endpoint="bytes"}`, n.Name)
		if got := metricValue(t, body, sample); got != 3 {
			t.Errorf("node %s forwarded %v pooled requests, want 3", n.Name, got)
		}
	}
}

// The router's own health document tracks node probes.
func TestRouterHealthz(t *testing.T) {
	https, nodes := bootNodes(t, 3, nodeCfg(1))
	rt, rts := bootRouter(t, nodes, nil)

	rt.probeAll()
	status, body, _ := get(t, rts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz status %d", status)
	}
	var doc struct {
		Status string `json:"status"`
		Nodes  []struct {
			Name string `json:"name"`
			Up   bool   `json:"up"`
		} `json:"nodes"`
		Ring struct {
			Nodes int `json:"nodes"`
		} `json:"ring"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" || doc.Ring.Nodes != 3 {
		t.Fatalf("healthz %s with %d ring nodes", doc.Status, doc.Ring.Nodes)
	}

	// Kill one node: the next probe demotes it and healthz degrades.
	https[1].CloseClientConnections()
	https[1].Close()
	rt.probeAll()
	status, body, _ = get(t, rts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("degraded healthz status %d (router can still serve)", status)
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "degraded" {
		t.Fatalf("healthz status %q after node kill, want degraded", doc.Status)
	}
	for _, n := range doc.Nodes {
		if n.Name == "n1" && n.Up {
			t.Error("killed node still reported up after probe")
		}
	}
	if got := routerMetric(t, rts.URL, `bsrngd_cluster_node_up{node="n1"}`); got != 0 {
		t.Errorf("node_up gauge %v for killed node", got)
	}

	// Kill the rest: the router itself goes down (503).
	https[0].CloseClientConnections()
	https[0].Close()
	https[2].CloseClientConnections()
	https[2].Close()
	rt.probeAll()
	status, body, _ = get(t, rts.URL+"/healthz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("all-down healthz status %d, want 503", status)
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != "down" {
		t.Fatalf("healthz status %q, want down", doc.Status)
	}
}

// Shutdown drains the router: a relayed /stream open when it starts
// ends after the current upstream read with a clean end of body, short
// of its budget, and then /healthz answers 503 "draining" and a new
// routed request 503. With the handler served by a server of the test's
// own, Shutdown marks the router and returns at once.
func TestRouterShutdownDraining(t *testing.T) {
	_, nodes := bootNodes(t, 1, nodeCfg(1))
	rt, rts := bootRouter(t, nodes, nil)

	const budget = 16 << 20
	resp, err := http.Get(fmt.Sprintf("%s/stream?alg=grain&n=%d", rts.URL, budget))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.CopyN(io.Discard, resp.Body, 64<<10); err != nil {
		t.Fatal(err)
	}
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		t.Fatalf("relayed stream ended with %v after the drain began, want a clean EOF", err)
	}
	if 64<<10+n >= budget {
		t.Errorf("relayed stream served its full %d-byte budget despite the drain", budget)
	}

	status, body, _ := get(t, rts.URL+"/healthz")
	var doc struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if status != http.StatusServiceUnavailable || doc.Status != "draining" {
		t.Errorf("draining healthz: status %d, %q; want 503 and draining", status, doc.Status)
	}
	if status, _, _ := get(t, rts.URL+"/bytes?alg=grain&n=16"); status != http.StatusServiceUnavailable {
		t.Errorf("routed request while draining: status %d, want 503", status)
	}
}

// Ring reload: SetRing swaps membership minimally and the rebalance
// cost shows up on /metrics; ReloadFromFile applies an edited ring file
// (the SIGHUP path) and rejects a broken one without losing the ring.
func TestRingReload(t *testing.T) {
	_, nodes := bootNodes(t, 3, nodeCfg(1))

	path := filepath.Join(t.TempDir(), "ring.json")
	writeRing := func(ns []Node) {
		t.Helper()
		raw, err := json.Marshal(RingConfig{VirtualNodes: 32, SegmentWindow: 1024, Nodes: ns})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeRing(nodes[:2])

	rt, rts := bootRouter(t, nodes[:2], func(rt *Router) { rt.ringPath = path })
	if got := routerMetric(t, rts.URL, "bsrngd_cluster_ring_nodes"); got != 2 {
		t.Fatalf("ring_nodes %v, want 2", got)
	}

	writeRing(nodes)
	if err := rt.ReloadFromFile(); err != nil {
		t.Fatal(err)
	}
	if got := len(rt.Ring().Nodes()); got != 3 {
		t.Fatalf("ring has %d nodes after reload, want 3", got)
	}
	if got := routerMetric(t, rts.URL, "bsrngd_cluster_ring_reloads_total"); got != 1 {
		t.Errorf("ring_reloads_total %v, want 1", got)
	}
	if got := routerMetric(t, rts.URL, "bsrngd_cluster_rebalance_keys_moved_total"); got == 0 {
		t.Error("no probe keys moved on a 2→3 node reload")
	}
	// The new node takes routed traffic: pooled spread now covers n2.
	for i := 0; i < 6; i++ {
		if status, _, _ := get(t, rts.URL+"/bytes?alg=grain&n=64"); status != http.StatusOK {
			t.Fatalf("post-reload request %d failed", i)
		}
	}
	_, body, _ := get(t, rts.URL+"/metrics")
	if got := metricValue(t, body, `bsrngd_cluster_forwarded_total{node="n2",endpoint="bytes"}`); got == 0 {
		t.Error("reloaded-in node n2 received no traffic")
	}

	// A broken file must not clobber the working ring.
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := rt.ReloadFromFile(); err == nil {
		t.Fatal("broken ring file accepted")
	}
	if got := len(rt.Ring().Nodes()); got != 3 {
		t.Fatalf("ring lost nodes after failed reload: %d", got)
	}

	// A router without a ring path cannot reload.
	rt2, _ := bootRouter(t, nodes[:2], nil)
	if err := rt2.ReloadFromFile(); err == nil {
		t.Error("ReloadFromFile without RingPath accepted")
	}
}

// A router built on one node and grown to three by SetRing fails over
// across all three. Regression: the attempt count was fixed to the ring
// size at NewRouter, so the grown router relayed a node's 503.
func TestRouterAttemptsFollowReloadedRing(t *testing.T) {
	https, nodes := bootNodes(t, 3, nodeCfg(1))
	https[0].Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
	})
	rt, rts := bootRouter(t, nodes[:1], nil)
	ring, err := NewRing(RingConfig{VirtualNodes: 32, SegmentWindow: 1024, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetRing(ring)
	// The pooled rotation starts once at every node, n0 included.
	for i := range nodes {
		if status, body, _ := get(t, rts.URL+"/bytes?alg=grain&n=64"); status != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 (%s)", i, status, body)
		}
	}
}

// Invalid requests still produce the serving node's canonical errors
// through the router (the router never masks a 4xx).
func TestRouterRelaysNodeErrors(t *testing.T) {
	_, nodes := bootNodes(t, 2, nodeCfg(1))
	_, rts := bootRouter(t, nodes, nil)

	status, body, _ := get(t, rts.URL+"/bytes?alg=rot13&n=64")
	if status != http.StatusBadRequest {
		t.Fatalf("bad alg status %d, want 400", status)
	}
	if !strings.Contains(string(body), "algorithm") {
		t.Errorf("bad alg body %q", body)
	}
	if status, _, _ := get(t, rts.URL+"/stream?lease=!!!"); status != http.StatusBadRequest {
		t.Errorf("bad lease token status %d, want 400", status)
	}
}

// blockingTransport parks every probe until its request context is
// cancelled, so the test below can prove Close aborts in-flight probes.
type blockingTransport struct{ entered chan struct{} }

func (bt *blockingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	select {
	case bt.entered <- struct{}{}:
	default:
	}
	<-r.Context().Done()
	return nil, r.Context().Err()
}

// TestCloseCancelsInflightProbe is the regression test for the probe
// context fix (flagged by the context-propagation analyzer): probes
// used to root their context in context.Background(), so a probe stuck
// in a slow dial could delay Close by the full probe timeout. Probes now
// derive from the router's base context, which Close cancels.
func TestCloseCancelsInflightProbe(t *testing.T) {
	_, nodes := bootNodes(t, 1, nodeCfg(1))
	bt := &blockingTransport{entered: make(chan struct{}, 1)}
	rt, _ := bootRouter(t, nodes, func(rt *Router) {
		rt.probeEvery = time.Millisecond
		rt.probeTimeout = time.Minute // only cancellation can unblock
		rt.transport = bt
	})
	rt.Start()
	select {
	case <-bt.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("prober never issued a probe")
	}
	done := make(chan struct{})
	go func() {
		rt.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not cancel the in-flight probe (stuck behind the probe timeout)")
	}
}

// Every accepted spelling of an algorithm routes as its canonical name.
// Regression: the router once keyed the ring on the raw alg= string, so
// POST /lease?alg=aes and POST /lease?alg=aes-ctr anchored on different
// nodes, and each node's counter handed out the same first domain — two
// clients holding the same "private" window. Leases must all be
// distinct, each algorithm must anchor on one node whatever its
// spelling, and addressed traffic must follow the same canonical key.
func TestAlgorithmSpellingsShareOneAnchor(t *testing.T) {
	cfg := nodeCfg(3)
	cfg.Algorithms = []core.Algorithm{core.AESCTR, core.GRAIN}
	_, nodes := bootNodes(t, 3, cfg)
	_, rts := bootRouter(t, nodes, nil)

	spellings := []struct{ alg, canonical string }{
		{"aes-ctr", "aes-ctr"}, {"aes", "aes-ctr"}, {"AES", "aes-ctr"}, {"Aes-Ctr", "aes-ctr"},
		{"grain", "grain"}, {"GRAIN", "grain"},
	}
	ids := map[string]string{}    // lease id → spelling that received it
	anchor := map[string]string{} // canonical alg → node of its first lease
	for _, sp := range spellings {
		resp, err := http.Post(rts.URL+"/lease?segments=2&alg="+sp.alg, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("alg=%s: lease status %d err %v", sp.alg, resp.StatusCode, err)
		}
		var doc leaseDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Algorithm != sp.canonical {
			t.Errorf("alg=%s: lease names %q, want %q", sp.alg, doc.Algorithm, sp.canonical)
		}
		if prev, dup := ids[doc.ID]; dup {
			t.Errorf("alg=%s was issued the same lease as alg=%s (domain %d)", sp.alg, prev, doc.Domain)
		}
		ids[doc.ID] = sp.alg
		node := resp.Header.Get("X-Bsrng-Cluster-Node")
		if first, ok := anchor[sp.canonical]; !ok {
			anchor[sp.canonical] = node
		} else if node != first {
			t.Errorf("alg=%s anchored on %s, but %s anchors on %s", sp.alg, node, sp.canonical, first)
		}
	}

	var served []string
	for _, alg := range []string{"aes", "aes-ctr"} {
		status, _, hdr := get(t, rts.URL+"/stream?segment=5&n=64&alg="+alg)
		if status != http.StatusOK {
			t.Fatalf("alg=%s: stream status %d", alg, status)
		}
		served = append(served, hdr.Get("X-Bsrng-Cluster-Node"))
	}
	if served[0] != served[1] {
		t.Errorf("segment 5 of aes served by %s, of aes-ctr by %s; want one owner", served[0], served[1])
	}
}
