package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// newHTTPTestServer serves an already-built Server (e.g. one carrying a
// test hook) and ties its lifetime to the test.
func newHTTPTestServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return ts
}

// waitMetric polls /metrics until the named sample reaches want.
func waitMetric(t *testing.T, url, name string, want float64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body, _ := get(t, url+"/metrics")
		got := metricValue(t, body, name)
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("metric %s stuck at %v, want %v", name, got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// The streaming contract: pooled /stream rides the same pooled source as
// /bytes — chunked, flushed, deterministic, and the source's cursor
// advances by exactly the bytes served so the next request continues
// the canonical stream.
func TestStreamPooledDeterministicAndContinues(t *testing.T) {
	const seed = 42
	cfg := Config{
		Seed:       seed,
		Algorithms: []core.Algorithm{core.MICKEY},
	}
	_, ts := newTestServer(t, cfg)

	resp, err := http.Get(ts.URL + "/stream?alg=mickey&n=6144")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d err %v", resp.StatusCode, err)
	}
	if len(resp.TransferEncoding) == 0 || resp.TransferEncoding[0] != "chunked" {
		t.Errorf("transfer encoding %v, want chunked", resp.TransferEncoding)
	}
	if got := resp.Header.Get("X-Bsrng-Mode"); got != "pooled" {
		t.Errorf("mode header %q, want pooled", got)
	}
	if got := resp.Header.Get("X-Bsrng-Algorithm"); got != "mickey" {
		t.Errorf("algorithm header %q", got)
	}
	if len(body) != 6144 {
		t.Fatalf("got %d bytes, want 6144", len(body))
	}

	ref, err := core.NewStream(core.MICKEY, seed, core.StreamConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := make([]byte, 8192)
	if _, err := io.ReadFull(ref, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want[:6144]) {
		t.Fatal("/stream bytes diverge from the library stream prefix")
	}

	// The source's cursor advanced by exactly 6144: /bytes continues there.
	status, next, _ := get(t, ts.URL+"/bytes?alg=mickey&n=2048")
	if status != http.StatusOK {
		t.Fatalf("follow-up /bytes status %d", status)
	}
	if !bytes.Equal(next, want[6144:8192]) {
		t.Fatal("/bytes after /stream does not continue the stream")
	}

	_, mbody, _ := get(t, ts.URL+"/metrics")
	if got := metricValue(t, mbody, "bsrngd_stream_bytes_total"); got != 6144 {
		t.Errorf("stream_bytes_total = %v, want 6144", got)
	}
	if got := metricValue(t, mbody, "bsrngd_stream_chunks_flushed_total"); got != 1 {
		t.Errorf("chunks_flushed_total = %v, want 1 (a chunk is up to one pass)", got)
	}
	if got := metricValue(t, mbody,
		`bsrngd_stream_requests_total{alg="mickey",mode="pooled",status="200"}`); got != 1 {
		t.Errorf("stream_requests_total pooled 200 = %v, want 1", got)
	}
	if got := metricValue(t, mbody, "bsrngd_stream_open"); got != 0 {
		t.Errorf("stream_open gauge = %v after completion, want 0", got)
	}
}

// Addressed /stream serves a named window of the deterministic address
// space: byte-identical to core.NewSegmentReader, identical at every
// lane width, and repeatable because no pooled state is consumed.
func TestStreamAddressedWindow(t *testing.T) {
	const seed = 5
	cfg := Config{
		Seed:            seed,
		Algorithms:      []core.Algorithm{core.GRAIN},
		MaxRequestBytes: 65536,
	}
	_, ts := newTestServer(t, cfg)

	const (
		domain = 2
		off    = uint64(3*core.SegmentBytes + 100)
		n      = 5000
	)
	url := fmt.Sprintf("%s/stream?alg=grain&domain=%d&segment=3&off=100&n=%d", ts.URL, domain, n)
	status, body, hdr := get(t, url)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if got := hdr.Get("X-Bsrng-Mode"); got != "addressed" {
		t.Errorf("mode header %q, want addressed", got)
	}
	if got := hdr.Get("X-Bsrng-Offset"); got != strconv.FormatUint(off, 10) {
		t.Errorf("offset header %q, want %d", got, off)
	}

	src, err := core.NewSegmentReader(core.GRAIN, seed, domain, 0, off)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, n)
	if _, err := io.ReadFull(src, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("addressed window diverges from core.NewSegmentReader")
	}

	for _, lanes := range core.SupportedLanes {
		status, again, _ := get(t, fmt.Sprintf("%s&lanes=%d", url, lanes))
		if status != http.StatusOK || !bytes.Equal(again, want) {
			t.Fatalf("lanes=%d window (status %d) diverges from the lanes-default window", lanes, status)
		}
	}

	// n defaults to the per-request cap on addressed streams.
	status, full, _ := get(t, ts.URL+"/stream?alg=grain&segment=0")
	if status != http.StatusOK || len(full) != 65536 {
		t.Fatalf("default-n addressed stream: status %d, %d bytes, want cap 65536", status, len(full))
	}
}

// Regression: a client that disconnects mid-/stream ends the stream at a
// chunk boundary and leaves the pooled source serving —
// bsrngd_stream_open returns to 0 and the next request is served
// normally. (Run with -race.)
func TestStreamClientDisconnectReleasesShard(t *testing.T) {
	cfg := Config{
		Seed:       11,
		Algorithms: []core.Algorithm{core.GRAIN},
	}
	_, ts := newTestServer(t, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/stream?alg=grain&n=8388608", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	head := make([]byte, 4096)
	if _, err := io.ReadFull(resp.Body, head); err != nil {
		t.Fatalf("reading stream head: %v", err)
	}
	waitMetric(t, ts.URL, "bsrngd_stream_open", 1)

	cancel() // client walks away mid-stream
	resp.Body.Close()

	waitMetric(t, ts.URL, "bsrngd_stream_open", 0)

	// The source is free: it serves the next request.
	if status, _, _ := get(t, ts.URL+"/bytes?alg=grain&n=64"); status != http.StatusOK {
		t.Fatalf("request after disconnect: status %d, want 200", status)
	}
	_, mbody, _ := get(t, ts.URL+"/metrics")
	if got := metricValue(t, mbody, "bsrngd_stream_disconnects_total"); got < 1 {
		t.Errorf("stream_disconnects_total = %v, want ≥ 1", got)
	}
}

// Graceful drain ends an in-flight /stream at the next chunk boundary:
// Shutdown completes without waiting for the stream's full byte budget,
// and the client sees a clean (short) end of body.
func TestStreamEndsAtChunkBoundaryOnDrain(t *testing.T) {
	cfg := Config{
		Seed:       13,
		Algorithms: []core.Algorithm{core.MICKEY},
	}
	s, ts := newTestServer(t, cfg)

	resp, err := http.Get(ts.URL + "/stream?alg=mickey&n=16777216")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	head := make([]byte, 2048)
	if _, err := io.ReadFull(resp.Body, head); err != nil {
		t.Fatal(err)
	}

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// Keep consuming: the stream ends at the first chunk started after
	// draining flipped.
	total, _ := io.Copy(io.Discard, resp.Body)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("drain did not complete while a stream was open: %v", err)
	}
	if got := int64(len(head)) + total; got >= 16777216 {
		t.Fatalf("stream served its full %d-byte budget despite drain", got)
	}
}

// Satellite fix, table-driven: the per-request byte cap and MaxInflight
// admission control apply uniformly to /bytes (binary and hex) and every
// /stream mode — 413 over the cap, 429 + Retry-After over the in-flight
// budget.
func TestByteCapsAndAdmissionAcrossEndpoints(t *testing.T) {
	s, err := New(Config{
		Seed:            3,
		Algorithms:      []core.Algorithm{core.GRAIN},
		MaxRequestBytes: 4096,
		MaxInflight:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var freeze atomic.Bool
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHookServing = func() {
		if !freeze.Load() {
			return
		}
		select {
		case entered <- struct{}{}:
			<-release
		default:
		}
	}
	ts := newHTTPTestServer(t, s)

	leaseID := Lease{Alg: core.GRAIN, Domain: leaseDomainBase + 9, Segments: 4}.id()
	paths := []struct {
		name string
		path string // without n
	}{
		{"bytes binary", "/bytes?alg=grain"},
		{"bytes hex", "/bytes?alg=grain&hex=1"},
		{"stream pooled", "/stream?alg=grain"},
		{"stream addressed", "/stream?alg=grain&segment=0"},
		{"stream lease", "/stream?lease=" + leaseID},
	}

	for _, tc := range paths {
		t.Run(tc.name+"/over cap", func(t *testing.T) {
			status, _, _ := get(t, ts.URL+tc.path+"&n=4097")
			if status != http.StatusRequestEntityTooLarge {
				t.Fatalf("n over cap: status %d, want 413", status)
			}
		})
		t.Run(tc.name+"/at cap", func(t *testing.T) {
			status, body, _ := get(t, ts.URL+tc.path+"&n=4096")
			if status != http.StatusOK {
				t.Fatalf("n at cap: status %d, want 200", status)
			}
			wantLen := 4096
			if tc.name == "bytes hex" {
				wantLen = 2*4096 + 1 // hex + trailing newline
			}
			if len(body) != wantLen {
				t.Fatalf("n at cap: %d body bytes, want %d", len(body), wantLen)
			}
		})
	}

	// One frozen request holds the whole in-flight budget; every serving
	// path sheds with 429 + Retry-After.
	_, mbody, _ := get(t, ts.URL+"/metrics")
	rejectedBefore := metricValue(t, mbody, "bsrngd_admission_rejected_total")
	freeze.Store(true)
	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/bytes?alg=grain&n=64")
		if err != nil {
			done <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-entered

	for _, tc := range paths {
		t.Run(tc.name+"/admission", func(t *testing.T) {
			status, _, hdr := get(t, ts.URL+tc.path+"&n=64")
			if status != http.StatusTooManyRequests {
				t.Fatalf("over-budget request: status %d, want 429", status)
			}
			if hdr.Get("Retry-After") != "1" {
				t.Errorf("Retry-After = %q, want %q", hdr.Get("Retry-After"), "1")
			}
		})
	}

	close(release)
	if st := <-done; st != http.StatusOK {
		t.Fatalf("frozen in-budget request: status %d, want 200", st)
	}
	_, mbody, _ = get(t, ts.URL+"/metrics")
	if got := metricValue(t, mbody, "bsrngd_admission_rejected_total") - rejectedBefore; got != float64(len(paths)) {
		t.Errorf("admission_rejected_total grew by %v, want %d", got, len(paths))
	}
	if got := metricValue(t, mbody,
		`bsrngd_stream_requests_total{alg="grain",mode="pooled",status="429"}`); got != 1 {
		t.Errorf("pooled stream 429 count = %v, want 1", got)
	}
}

// Malformed /stream requests fail closed with specific statuses.
func TestStreamParamValidation(t *testing.T) {
	cfg := Config{
		Seed:            7,
		Algorithms:      []core.Algorithm{core.GRAIN, core.AESCTR},
		MaxRequestBytes: 8192,
	}
	_, ts := newTestServer(t, cfg)
	lease2 := Lease{Alg: core.GRAIN, Domain: leaseDomainBase + 1, Segments: 2}.id()
	leaseAES := Lease{Alg: core.AESCTR, Domain: leaseDomainBase + 2, Segments: 2}.id()

	cases := []struct {
		name string
		path string
		want int
	}{
		{"hex rejected", "/stream?alg=grain&hex=1", http.StatusBadRequest},
		{"zero n", "/stream?alg=grain&n=0", http.StatusBadRequest},
		{"negative n", "/stream?alg=grain&n=-5", http.StatusBadRequest},
		{"unknown alg", "/stream?alg=nope", http.StatusBadRequest},
		{"alg not served", "/stream?alg=mickey", http.StatusBadRequest},
		{"bad lanes", "/stream?alg=grain&segment=0&lanes=65", http.StatusBadRequest},
		{"lanes between widths", "/stream?alg=grain&segment=0&lanes=128", http.StatusBadRequest},
		{"non-numeric segment", "/stream?alg=grain&segment=abc", http.StatusBadRequest},
		{"segment too big", "/stream?alg=grain&segment=1099511627776", http.StatusBadRequest},
		{"non-numeric domain", "/stream?alg=grain&domain=x", http.StatusBadRequest},
		{"off too big", "/stream?alg=grain&segment=0&off=4503599627370496", http.StatusBadRequest},
		{"garbage lease token", "/stream?lease=%40%40%40", http.StatusBadRequest},
		{"lease alg contradiction", "/stream?lease=" + lease2 + "&alg=mickey", http.StatusBadRequest},
		{"lease alg alias", "/stream?lease=" + leaseAES + "&alg=aes", http.StatusOK},
		{"lease alg contradicts alias", "/stream?lease=" + leaseAES + "&alg=mickey", http.StatusBadRequest},
		{"lease alg unparseable", "/stream?lease=" + leaseAES + "&alg=chaotic(", http.StatusBadRequest},
		{"lease off past window", "/stream?lease=" + lease2 + "&off=4096", http.StatusRequestedRangeNotSatisfiable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body, _ := get(t, ts.URL+tc.path)
			if status != tc.want {
				t.Fatalf("status %d, want %d (body: %s)", status, tc.want, body)
			}
		})
	}
}

// Acceptance: the steady-state /stream binary path allocates ~0 per
// chunk — the gathered window source fills the pooled chunk buffer in
// place and the chunk writer adds only atomic bookkeeping.
func TestStreamChunkSteadyStateAllocs(t *testing.T) {
	s, err := New(Config{
		Seed:       8,
		Algorithms: []core.Algorithm{core.GRAIN},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())

	src := s.engines[core.GRAIN].ws
	buf := make([]byte, passBytes)
	cw := &chunkWriter{s: s, w: io.Discard, ctx: context.Background()}
	var off uint64
	if _, err := streamWindow(cw, src, 0, off, buf, int64(len(buf))); err != nil {
		t.Fatal(err)
	}
	// Each run serves the next full chunk (one 64-segment pass) of the stream.
	if avg := testing.AllocsPerRun(20, func() {
		off += uint64(len(buf))
		streamWindow(cw, src, 0, off, buf, int64(len(buf)))
	}); avg > 0.5 {
		t.Fatalf("steady-state stream chunk allocates %.1f per chunk, want ~0", avg)
	}
}
