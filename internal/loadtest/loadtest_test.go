package loadtest

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// smallServer is the booted-daemon config every cell here shares: the
// given seed and algorithms, everything else at its default.
func smallServer(seed uint64, algs ...core.Algorithm) server.Config {
	return server.Config{
		Seed:       seed,
		Algorithms: algs,
	}
}

// The boot-mode cell: a mixed deterministic workload against an
// in-process daemon completes with zero unintended failures, verifies
// every deterministic window against the library, and produces the same
// order-insensitive digest when run twice.
func TestRunBootDeterministic(t *testing.T) {
	cfg := Config{
		Server:            smallServer(41, core.MICKEY),
		Clients:           6,
		RequestsPerClient: 6,
		Verify:            true,
		Logf:              t.Logf,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "boot" {
		t.Errorf("mode %q, want boot", res.Mode)
	}
	if want := int64(cfg.Clients * cfg.RequestsPerClient); res.Requests < want {
		t.Errorf("requests %d, want ≥ %d (lease shapes add sub-requests)", res.Requests, want)
	}
	if res.NonOK != 0 {
		t.Errorf("non-OK responses %d (statuses %v)", res.NonOK, res.Statuses)
	}
	if res.Statuses["200"] == 0 {
		t.Errorf("no 200s recorded: %v", res.Statuses)
	}
	if res.VerifiedWindows == 0 {
		t.Error("workload verified no windows — the addressed/lease shapes never ran")
	}
	if res.VerifyMismatches != 0 || res.ZeroRuns != 0 {
		t.Errorf("mismatches %d, zero runs %d", res.VerifyMismatches, res.ZeroRuns)
	}
	if res.BytesRead == 0 || res.ThroughputMBps <= 0 || res.Seconds <= 0 {
		t.Errorf("throughput accounting: %d bytes in %.3fs = %.3f MB/s",
			res.BytesRead, res.Seconds, res.ThroughputMBps)
	}
	for _, shape := range []string{"bytes", "stream", "lease"} {
		ls, ok := res.Latency[shape]
		if !ok || ls.Count == 0 {
			t.Errorf("no latency summary for shape %q", shape)
			continue
		}
		if ls.P50Ms <= 0 || ls.P99Ms < ls.P50Ms || ls.MaxMs < ls.P99Ms {
			t.Errorf("%s latency not monotone: %+v", shape, ls)
		}
	}

	// Same Config, fresh daemon: the window multiset — and therefore the
	// digest — is identical.
	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.WindowDigest != res.WindowDigest {
		t.Errorf("digest not reproducible: %s vs %s", res.WindowDigest, res2.WindowDigest)
	}
	if res2.VerifiedWindows != res.VerifiedWindows {
		t.Errorf("verified window count drifted: %d vs %d", res.VerifiedWindows, res2.VerifiedWindows)
	}
}

// serveDaemon serves a daemon of cfg on a loopback listener until the
// test ends and returns its base URL.
func serveDaemon(t *testing.T, cfg server.Config) string {
	t.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return "http://" + ln.Addr().String()
}

// Dial mode drives an externally-booted daemon; with a lease-free mix
// the digest is reproducible even against one long-lived process, and
// VerifySeed stands in for the server seed.
func TestRunDialMode(t *testing.T) {
	cfg := Config{
		BaseURL:           serveDaemon(t, smallServer(91, core.GRAIN)),
		Clients:           4,
		RequestsPerClient: 5,
		Mix:               Mix{Bytes: 1, Stream: 2}, // no leases: domains stay fixed
		Algorithms:        []core.Algorithm{core.GRAIN},
		Verify:            true,
		VerifySeed:        91,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "dial" {
		t.Errorf("mode %q, want dial", res.Mode)
	}
	if res.NonOK != 0 || res.VerifyMismatches != 0 {
		t.Fatalf("dial run: non-OK %d, mismatches %d (statuses %v)",
			res.NonOK, res.VerifyMismatches, res.Statuses)
	}
	if res.Requests != int64(cfg.Clients*cfg.RequestsPerClient) {
		t.Errorf("requests %d, want %d", res.Requests, cfg.Clients*cfg.RequestsPerClient)
	}
	if _, ok := res.Latency["lease"]; ok {
		t.Error("lease latency recorded despite a lease-free mix")
	}

	res2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res2.WindowDigest != res.WindowDigest {
		t.Errorf("dial digest not reproducible: %s vs %s", res.WindowDigest, res2.WindowDigest)
	}
}

// A wrong verification seed must be loudly visible, not silently folded
// into the digest.
func TestRunVerifyCatchesWrongSeed(t *testing.T) {
	res, err := Run(Config{
		Server:            smallServer(7, core.MICKEY),
		Clients:           2,
		RequestsPerClient: 6,
		Mix:               Mix{Stream: 1},
		Verify:            true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyMismatches != 0 {
		t.Fatalf("control run mismatched %d windows", res.VerifyMismatches)
	}

	// Same daemon seed, poisoned verification seed via dial-mode plumbing.
	res, err = Run(Config{
		BaseURL:           serveDaemon(t, smallServer(7, core.MICKEY)),
		Clients:           2,
		RequestsPerClient: 6,
		Mix:               Mix{Stream: 1},
		Algorithms:        []core.Algorithm{core.MICKEY},
		Verify:            true,
		VerifySeed:        8, // wrong on purpose
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.VerifyMismatches == 0 {
		t.Error("verification with the wrong seed reported zero mismatches")
	}
}

func TestRunConfigErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"negative clients", Config{Clients: -1}, "clients"},
		{"negative mix", Config{Server: smallServer(1, core.MICKEY),
			Mix: Mix{Bytes: -1, Stream: 2}}, "mix"},
		{"boot failure", Config{Server: server.Config{MaxInflight: -1}}, "booting server"},
		{"chaos in dial mode", Config{BaseURL: "http://127.0.0.1:1",
			Chaos: &ChaosConfig{}}, "boot mode"},
	} {
		_, err := Run(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// Transport failures land in the "error" status bucket and the non-OK
// count instead of crashing the run.
func TestRunUnreachableDaemon(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here anymore
	res, err := Run(Config{
		BaseURL:           "http://" + addr,
		Clients:           2,
		RequestsPerClient: 2,
		Timeout:           2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NonOK == 0 || res.Statuses["error"] == 0 {
		t.Errorf("unreachable daemon produced no transport errors: %+v", res.Statuses)
	}
}

func TestHasZeroRun(t *testing.T) {
	long := make([]byte, 200)
	for i := range long {
		long[i] = byte(i%250) + 1
	}
	broken := append(append([]byte{}, long[:50]...), make([]byte, 64)...)
	split := append(append(append([]byte{}, make([]byte, 63)...), 1), make([]byte, 63)...)
	for _, tc := range []struct {
		name string
		b    []byte
		want bool
	}{
		{"empty", nil, false},
		{"healthy", long, false},
		{"63 zeros", make([]byte, 63), false},
		{"64 zeros", make([]byte, 64), true},
		{"embedded run", broken, true},
		{"interrupted run", split, false},
	} {
		if got := hasZeroRun(tc.b); got != tc.want {
			t.Errorf("%s: hasZeroRun = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestLatencyHistogram(t *testing.T) {
	var h latHist
	if s := h.summary(); s != (LatencySummary{}) {
		t.Errorf("empty histogram summary %+v", s)
	}
	for i := 0; i < 100; i++ {
		h.observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.observe(100 * time.Millisecond)
	}
	h.observe(0) // sub-microsecond lands in bucket 0
	s := h.summary()
	if s.Count != 111 {
		t.Fatalf("count %d", s.Count)
	}
	if s.P50Ms < 1 || s.P50Ms > 1.25 {
		t.Errorf("p50 %.3fms outside the 1ms bucket bound", s.P50Ms)
	}
	if s.P99Ms != 100 {
		t.Errorf("p99 %.3fms, want capped at max 100ms", s.P99Ms)
	}
	if s.MaxMs != 100 {
		t.Errorf("max %.3fms", s.MaxMs)
	}
	if s.MeanMs < 9 || s.MeanMs > 11 {
		t.Errorf("mean %.3fms, want ≈9.9ms", s.MeanMs)
	}
	if s.P90Ms < s.P50Ms || s.P99Ms < s.P90Ms {
		t.Errorf("quantiles not monotone: %+v", s)
	}

	// An extreme observation clamps into the last bucket.
	var wide latHist
	wide.observe(time.Hour)
	if ws := wide.summary(); ws.P99Ms != ws.MaxMs {
		t.Errorf("overflow bucket quantile %.1f != max %.1f", ws.P99Ms, ws.MaxMs)
	}
}
