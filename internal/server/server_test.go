package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return s, ts
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

// The acceptance contract: /bytes?alg=mickey&n=1024 on a freshly seeded
// server returns exactly the prefix of the equivalent library stream.
func TestBytesDeterministicSeededOutput(t *testing.T) {
	cfg := Config{Seed: 42}
	_, ts := newTestServer(t, cfg)

	status, body, hdr := get(t, ts.URL+"/bytes?alg=mickey&n=1024")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(body) != 1024 {
		t.Fatalf("got %d bytes", len(body))
	}
	if hdr.Get("X-Bsrng-Algorithm") != "mickey" {
		t.Errorf("algorithm header %q", hdr.Get("X-Bsrng-Algorithm"))
	}

	ref, err := core.NewStream(core.MICKEY, 42, core.StreamConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := make([]byte, 2048)
	ref.Read(want)
	if !bytes.Equal(body, want[:1024]) {
		t.Fatal("served bytes diverge from library stream prefix")
	}

	// A second request continues the same pooled stream, not a reset.
	status, body2, _ := get(t, ts.URL+"/bytes?alg=mickey&n=1024")
	if status != http.StatusOK {
		t.Fatalf("second request status %d", status)
	}
	if !bytes.Equal(body2, want[1024:2048]) {
		t.Fatal("second request does not continue the stream")
	}
}

func TestBytesHexOutput(t *testing.T) {
	cfg := Config{Seed: 7}
	_, ts := newTestServer(t, cfg)
	status, body, hdr := get(t, ts.URL+"/bytes?alg=grain&n=16&hex=1")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	s := string(body)
	if len(s) != 33 || s[32] != '\n' {
		t.Fatalf("unexpected hex body %q", s)
	}
	raw, err := hex.DecodeString(s[:32])
	if err != nil {
		t.Fatalf("not hex: %v", err)
	}
	if !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") {
		t.Errorf("hex content type %q", hdr.Get("Content-Type"))
	}
	ref, _ := core.NewStream(core.GRAIN, 7, core.StreamConfig{Workers: 1})
	defer ref.Close()
	want := make([]byte, 16)
	ref.Read(want)
	if !bytes.Equal(raw, want) {
		t.Fatal("hex bytes diverge from library stream")
	}
}

func TestMetricsAfterRequest(t *testing.T) {
	cfg := Config{Seed: 1}
	_, ts := newTestServer(t, cfg)
	if status, _, _ := get(t, ts.URL+"/bytes?alg=trivium&n=4096"); status != http.StatusOK {
		t.Fatalf("bytes status %d", status)
	}
	status, body, _ := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	out := string(body)
	for _, want := range []string{
		"bsrngd_bytes_served_total 4096",
		`bsrngd_requests_total{alg="trivium",status="200"} 1`,
		"bsrngd_shard_checkout_seconds_count 1",
		"bsrngd_engine_chunks_produced_total 1", // one pass covers the request
		`bsrngd_health_degraded{alg="trivium"} 0`,
		"bsrngd_health_segments_checked_total 64",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

func TestBadRequests(t *testing.T) {
	cfg := Config{Seed: 1, MaxRequestBytes: 1 << 10}
	_, ts := newTestServer(t, cfg)
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/bytes?alg=rot13&n=16", http.StatusBadRequest},
		{"/bytes?alg=mickey&n=0", http.StatusBadRequest},
		{"/bytes?alg=mickey&n=-5", http.StatusBadRequest},
		{"/bytes?alg=mickey&n=zzz", http.StatusBadRequest},
		{"/bytes?alg=mickey&n=2048", http.StatusRequestEntityTooLarge},
		{"/nope", http.StatusNotFound},
	} {
		if status, _, _ := get(t, ts.URL+tc.path); status != tc.want {
			t.Errorf("%s: status %d, want %d", tc.path, status, tc.want)
		}
	}
	// Error statuses are visible in request metrics.
	_, body, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), `bsrngd_requests_total{alg="invalid",status="400"}`) {
		t.Errorf("invalid-alg requests not counted:\n%s", body)
	}
	if !strings.Contains(string(body), `bsrngd_requests_total{alg="mickey",status="413"} 1`) {
		t.Errorf("oversized requests not counted:\n%s", body)
	}
}

func TestAlgorithmNotServed(t *testing.T) {
	cfg := Config{Seed: 1, Algorithms: []core.Algorithm{core.GRAIN}}
	_, ts := newTestServer(t, cfg)
	if status, _, _ := get(t, ts.URL+"/bytes?alg=mickey&n=16"); status != http.StatusBadRequest {
		t.Errorf("unserved algorithm status %d, want 400", status)
	}
	if status, _, _ := get(t, ts.URL+"/bytes?alg=grain&n=16"); status != http.StatusOK {
		t.Errorf("served algorithm status %d, want 200", status)
	}
}

// freezeServing makes the first pooled request that starts serving
// signal entered and wait for release. Set it before the server
// accepts connections, so handler goroutines see the hook without a
// data race.
func freezeServing(s *Server) (entered chan struct{}, release chan struct{}) {
	entered = make(chan struct{}, 1)
	release = make(chan struct{})
	s.testHookServing = func() {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
	return entered, release
}

// getAsync GETs url in the background and sends the status and body
// length on the returned channel (status -1 on a transport error).
func getAsync(url string) <-chan [2]int {
	done := make(chan [2]int, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			done <- [2]int{-1, 0}
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		done <- [2]int{resp.StatusCode, len(body)}
	}()
	return done
}

// Once Shutdown begins, /healthz reports draining and new work gets 503
// on connections that are still open, while a request already in
// flight runs to a full 200. The handler is served by httptest here, so
// Shutdown has no listener of its own to wait for.
func TestShutdownDrainsInFlight(t *testing.T) {
	s, err := New(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := freezeServing(s)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})

	reqDone := getAsync(ts.URL + "/bytes?alg=mickey&n=2048")
	<-entered // request is in flight
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	status, body, _ := get(t, ts.URL+"/healthz")
	if status != http.StatusServiceUnavailable || !bytes.Contains(body, []byte(`"draining"`)) {
		t.Fatalf("healthz during drain: %d %s, want 503 draining", status, body)
	}
	if status, _, _ := get(t, ts.URL+"/bytes?alg=mickey&n=16"); status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain got %d, want 503", status)
	}

	close(release)
	if res := <-reqDone; res != [2]int{http.StatusOK, 2048} {
		t.Fatalf("in-flight request: status %d, %d bytes; want full 200", res[0], res[1])
	}
}

// Shutdown of a server running Serve — the SIGTERM drain path of
// cmd/bsrngd — closes the listener, waits for the in-flight request to
// complete in full, and makes Serve return http.ErrServerClosed.
func TestShutdownWaitsForInFlight(t *testing.T) {
	s, err := New(Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := freezeServing(s)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()

	reqDone := getAsync("http://" + ln.Addr().String() + "/bytes?alg=mickey&n=2048")
	<-entered // request is in flight

	shutDone := make(chan error, 1)
	go func() { shutDone <- s.Shutdown(context.Background()) }()
	select {
	case err := <-shutDone:
		t.Fatalf("Shutdown returned before in-flight request finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-shutDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if res := <-reqDone; res != [2]int{http.StatusOK, 2048} {
		t.Fatalf("in-flight request: status %d, %d bytes; want full 200", res[0], res[1])
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Algorithms: []core.Algorithm{}}); err == nil {
		t.Error("empty algorithm list accepted")
	}
	if _, err := New(Config{MaxInflight: -1}); err == nil {
		t.Error("negative max in-flight accepted")
	}
	if _, err := New(Config{Algorithms: []core.Algorithm{core.GRAIN, core.GRAIN}}); err == nil {
		t.Error("duplicate algorithm accepted")
	}
	if _, err := New(Config{Algorithms: []core.Algorithm{core.Algorithm(99)}}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	s, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
