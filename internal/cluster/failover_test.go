package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// throttledTransport caps how fast the router reads node response
// bodies, so a multi-megabyte stream is reliably still in flight when a
// test kills the serving node (an unthrottled loopback drains the whole
// window into socket buffers in milliseconds).
type throttledTransport struct{ base http.RoundTripper }

func (t throttledTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err == nil {
		resp.Body = &throttledBody{rc: resp.Body}
	}
	return resp, err
}

type throttledBody struct{ rc io.ReadCloser }

func (b *throttledBody) Read(p []byte) (int, error) {
	if len(p) > 2048 {
		p = p[:2048]
	}
	time.Sleep(200 * time.Microsecond)
	return b.rc.Read(p)
}

func (b *throttledBody) Close() error { return b.rc.Close() }

// readUntilDead drains a response body into buf until EOF or the
// connection dies, returning whatever arrived. A truncated chunked body
// surfaces as an error — that's the expected shape of a mid-stream node
// kill, not a test failure.
func readUntilDead(resp *http.Response) []byte {
	defer resp.Body.Close()
	var got []byte
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			return got
		}
	}
}

// The failover proof: a client streaming a lease through the router
// loses the owning node mid-stream, resumes the same lease at the byte
// it stopped at, and a replica serves the exact continuation — the
// reassembled window is byte-for-byte the library stream. Determinism
// is what makes the replica interchangeable; this test is the receipt.
func TestLeaseFailoverExactContinuation(t *testing.T) {
	const seed = 4242
	https, nodes := bootNodes(t, 3, nodeCfg(seed))
	rt, rts := bootRouter(t, nodes, func(rt *Router) {
		rt.transport = throttledTransport{base: http.DefaultTransport}
	})

	// A 4 MiB window behind the throttled transport: ~400ms of transfer,
	// so the kill below is guaranteed to land mid-stream.
	doc := createLease(t, rts.URL, 2048)
	want := libWindow(t, core.GRAIN, seed, doc.Domain, doc.StartSegment*core.SegmentBytes, int(doc.Bytes))

	ring := rt.Ring()
	owner := ring.Owner(ring.Key(doc.Algorithm, doc.Domain, doc.StartSegment))
	ownerIdx := -1
	for i, n := range nodes {
		if n.Name == owner.Name {
			ownerIdx = i
		}
	}
	if ownerIdx < 0 {
		t.Fatalf("owner %s not among booted nodes", owner.Name)
	}

	// Stream the lease through the router and kill the owner after the
	// first bytes arrive at the client.
	resp, err := http.Get(rts.URL + doc.StreamPath)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease stream status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Bsrng-Cluster-Node"); got != owner.Name {
		t.Fatalf("lease stream served by %s, ring owner is %s", got, owner.Name)
	}
	head := make([]byte, 8192)
	if _, err := io.ReadFull(resp.Body, head); err != nil {
		t.Fatal(err)
	}
	https[ownerIdx].CloseClientConnections()
	https[ownerIdx].Close()
	part1 := append(head, readUntilDead(resp)...)

	if len(part1) >= int(doc.Bytes) {
		t.Fatalf("received the whole %d-byte window before the kill took effect", doc.Bytes)
	}
	if !bytes.Equal(part1, want[:len(part1)]) {
		t.Fatalf("pre-kill bytes diverge from library stream (%d received)", len(part1))
	}

	// Resume exactly where the stream died. The ring still names the
	// dead owner first; the router must fail over to a replica.
	status, part2, hdr := get(t, fmt.Sprintf("%s%s&off=%d", rts.URL, doc.StreamPath, len(part1)))
	if status != http.StatusOK {
		t.Fatalf("resume status %d", status)
	}
	if got := hdr.Get("X-Bsrng-Cluster-Node"); got == owner.Name || got == "" {
		t.Fatalf("resume served by %q, want a replica of dead owner %s", got, owner.Name)
	}
	whole := append(part1, part2...)
	if len(whole) != int(doc.Bytes) {
		t.Fatalf("reassembled %d bytes, lease window is %d", len(whole), doc.Bytes)
	}
	if !bytes.Equal(whole, want) {
		t.Fatal("resumed continuation diverges from library stream — failover changed the bytes")
	}

	if got := routerMetric(t, rts.URL, "bsrngd_cluster_failovers_total"); got < 1 {
		t.Errorf("failovers_total %v after a failover, want >= 1", got)
	}
	if got := routerMetric(t, rts.URL, fmt.Sprintf("bsrngd_cluster_forward_failures_total{node=%q}", owner.Name)); got < 1 {
		t.Errorf("forward_failures_total %v for dead owner, want >= 1", got)
	}
}

// An injected forward fault (failpoint cluster.forward.fail.stream) is
// retried transparently: the client sees 200 and the exact bytes, the
// router counts the retry, and the faulted node is NOT marked down —
// the fault fired in the router, not on the node.
func TestForwardFaultRetries(t *testing.T) {
	if !faultinject.Available() {
		t.Skip("faultinject compiled out (bsrng_nofaultinject)")
	}
	const seed = 17
	_, nodes := bootNodes(t, 3, nodeCfg(seed))
	rt, rts := bootRouter(t, nodes, nil)

	faultinject.Arm("cluster.forward.fail.stream", 1)
	defer faultinject.Disarm("cluster.forward.fail.stream")

	const n = 4096
	want := libWindow(t, core.GRAIN, seed, 2, 3*core.SegmentBytes, n)
	status, body, _ := get(t, fmt.Sprintf("%s/stream?alg=grain&domain=2&segment=3&n=%d", rts.URL, n))
	if status != http.StatusOK {
		t.Fatalf("status %d through injected fault, want 200", status)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("bytes after injected-fault retry diverge from library stream")
	}
	if got := faultinject.Fired("cluster.forward.fail.stream"); got != 1 {
		t.Fatalf("failpoint fired %d times, want 1", got)
	}
	if got := routerMetric(t, rts.URL, "bsrngd_cluster_retries_total"); got < 1 {
		t.Errorf("retries_total %v, want >= 1", got)
	}
	// Injected faults must not poison health state.
	for _, nd := range nodes {
		if rt.nodeState(nd.Name).down.Load() {
			t.Errorf("node %s marked down by an injected fault", nd.Name)
		}
	}
}

// With every node dead the router exhausts its candidates and answers
// 502, counting the exhaustion.
func TestAllNodesDownExhausts(t *testing.T) {
	https, nodes := bootNodes(t, 2, nodeCfg(1))
	for _, ts := range https {
		ts.CloseClientConnections()
		ts.Close()
	}
	_, rts := bootRouter(t, nodes, nil)

	status, body, _ := get(t, rts.URL+"/bytes?alg=grain&n=64")
	if status != http.StatusBadGateway {
		t.Fatalf("status %d with all nodes down, want 502", status)
	}
	if !bytes.Contains(body, []byte("no node could serve")) {
		t.Errorf("502 body %q", body)
	}
	if got := routerMetric(t, rts.URL, "bsrngd_cluster_exhausted_total"); got != 1 {
		t.Errorf("exhausted_total %v, want 1", got)
	}
	if got := routerMetric(t, rts.URL, `bsrngd_cluster_requests_total{endpoint="bytes",status="502"}`); got != 1 {
		t.Errorf("requests_total 502 sample %v, want 1", got)
	}
}

// A node answering a retryable status fails over without the client
// noticing: node-side 503 (drain) → next candidate serves 200.
func TestRetryableStatusFailsOver(t *testing.T) {
	const seed = 23
	https, nodes := bootNodes(t, 2, nodeCfg(seed))
	_, rts := bootRouter(t, nodes, nil)

	// Find the owner of one addressed window and drain it so it answers
	// 503 to data requests while staying reachable.
	ring, err := NewRing(RingConfig{VirtualNodes: 32, SegmentWindow: 1024, Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	owner := ring.Owner(ring.Key("grain", 4, 9))
	for i, n := range nodes {
		if n.Name == owner.Name {
			// Replace the owner with a server that only says 503.
			https[i].Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "draining", http.StatusServiceUnavailable)
			})
		}
	}

	const n = 2048
	want := libWindow(t, core.GRAIN, seed, 4, 9*core.SegmentBytes, n)
	status, body, hdr := get(t, fmt.Sprintf("%s/stream?alg=grain&domain=4&segment=9&n=%d", rts.URL, n))
	if status != http.StatusOK {
		t.Fatalf("status %d through draining owner, want 200", status)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("failover bytes diverge from library stream")
	}
	if got := hdr.Get("X-Bsrng-Cluster-Node"); got == owner.Name {
		t.Errorf("served by draining owner %s", got)
	}
	if got := routerMetric(t, rts.URL, "bsrngd_cluster_failovers_total"); got < 1 {
		t.Errorf("failovers_total %v, want >= 1", got)
	}
}
