package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// tile locates each body in ref and checks the bodies occupy disjoint
// ranges; with contiguous set, they must also cover ref[:total] with no
// gap. It returns the covered prefix length.
func tile(t *testing.T, ref []byte, bodies [][]byte, contiguous bool) int {
	t.Helper()
	type span struct{ off, n int }
	spans := make([]span, 0, len(bodies))
	for i, b := range bodies {
		off := bytes.Index(ref, b)
		if off < 0 {
			t.Fatalf("body %d (%d bytes) is not a slice of the pooled stream", i, len(b))
		}
		spans = append(spans, span{off, len(b)})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
	end := 0
	for _, sp := range spans {
		switch {
		case sp.off < end:
			t.Fatalf("bodies overlap at stream offset %d", sp.off)
		case contiguous && sp.off > end:
			t.Fatalf("gap in the pooled stream at offset %d (next body at %d)", end, sp.off)
		}
		end = sp.off + sp.n
	}
	return end
}

// The pooled contract, sequentially: mixed /bytes (binary and hex) and
// pooled /stream bodies, concatenated in service order, are the domain-1
// stream of the seed — what NewSegmentReader(alg, Seed, 1, 64, 0) and a
// 1-worker core.Stream serve. The sizes straddle pass boundaries.
func TestPooledContractSequential(t *testing.T) {
	const seed = 17
	_, ts := newTestServer(t, Config{Seed: seed, Algorithms: []core.Algorithm{core.XORGENS}})

	var got []byte
	for i, path := range []string{
		"/bytes?alg=xorgens&n=1500",
		"/bytes?alg=xorgens&n=700&hex=1",
		"/stream?alg=xorgens&n=100000",
		"/bytes?alg=xorgens&n=131072",
		"/bytes?alg=xorgens&n=3&hex=1",
		"/stream?alg=xorgens&n=300001",
		"/bytes?alg=xorgens&n=2048",
	} {
		status, body, _ := get(t, ts.URL+path)
		if status != http.StatusOK {
			t.Fatalf("request %d (%s): status %d", i, path, status)
		}
		if strings.Contains(path, "hex=1") {
			raw, err := hex.DecodeString(strings.TrimSuffix(string(body), "\n"))
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			body = raw
		}
		got = append(got, body...)
	}
	if !bytes.Equal(got, domainOne(t, core.XORGENS, seed, len(got))) {
		t.Fatal("pooled bodies in service order diverge from the domain-1 stream")
	}
}

// The pooled contract, concurrently, sharing the engine with windows:
// each pooled /bytes of at most one pass is one contiguous slice of the
// domain-1 stream, and together the bodies tile a prefix of it with no
// gap and no overlap. Addressed and lease /stream clients run alongside
// on the same algorithm, so pooled refills and windows share passes,
// and every window equals NewSegmentReader at its address.
func TestPooledContractConcurrent(t *testing.T) {
	const (
		seed     = 23
		clients  = 8
		requests = 10
	)
	_, ts := newTestServer(t, Config{Seed: seed, Algorithms: []core.Algorithm{core.GRAIN}})

	fetch := func(method, url string) (int, []byte, error) {
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			return 0, nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
	window := func(domain, offset uint64, n int) []byte {
		r, err := core.NewSegmentReader(core.GRAIN, seed, domain, 0, offset)
		if err != nil {
			t.Error(err)
			return nil
		}
		b := make([]byte, n)
		io.ReadFull(r, b)
		return b
	}

	var mu sync.Mutex
	var bodies [][]byte
	total := 0
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(3)
		go func(c int) { // pooled
			defer wg.Done()
			for i := 0; i < requests; i++ {
				n := 64 + (c*7919+i*104729)%(passBytes-63) // 64 B … one pass
				status, body, err := fetch(http.MethodGet, fmt.Sprintf("%s/bytes?alg=grain&n=%d", ts.URL, n))
				if err != nil || status != http.StatusOK || len(body) != n {
					t.Errorf("pooled client %d request %d: status %d, %d of %d bytes, %v", c, i, status, len(body), n, err)
					return
				}
				mu.Lock()
				bodies = append(bodies, body)
				total += n
				mu.Unlock()
			}
		}(c)
		go func(c int) { // addressed
			defer wg.Done()
			for i := 0; i < requests; i++ {
				domain, off, n := uint64(c%3), uint64(c*100003+i*7777), 1+(c*31+i*4099)%(3*core.SegmentBytes)
				status, body, err := fetch(http.MethodGet, fmt.Sprintf("%s/stream?alg=grain&domain=%d&off=%d&n=%d", ts.URL, domain, off, n))
				if err != nil || status != http.StatusOK || !bytes.Equal(body, window(domain, off, n)) {
					t.Errorf("addressed client %d request %d: status %d, %v, or wrong bytes", c, i, status, err)
					return
				}
			}
		}(c)
		go func(c int) { // lease
			defer wg.Done()
			for i := 0; i < requests/2; i++ {
				status, raw, err := fetch(http.MethodPost, ts.URL+"/lease?alg=grain&segments=2")
				var doc leaseDoc
				if err == nil && status == http.StatusCreated {
					err = json.Unmarshal(raw, &doc)
				}
				if err != nil || status != http.StatusCreated {
					t.Errorf("lease client %d: create status %d, %v", c, status, err)
					return
				}
				status, body, err := fetch(http.MethodGet, ts.URL+doc.StreamPath)
				if err != nil || status != http.StatusOK ||
					!bytes.Equal(body, window(doc.Domain, doc.StartSegment*core.SegmentBytes, int(doc.Bytes))) {
					t.Errorf("lease client %d: status %d, %v, or wrong bytes", c, status, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if end := tile(t, domainOne(t, core.GRAIN, seed, total), bodies, true); end != total {
		t.Fatalf("bodies cover %d bytes, want %d", end, total)
	}
}

// A storm of pooled requests whose clients give up at random points,
// racing requests that complete, must neither wedge the pooled source
// nor serve one byte to two requests. Abandoned requests may consume
// bytes nobody receives, so completed bodies may leave gaps. Runs under
// -race in CI.
func TestCheckoutCancellationStorm(t *testing.T) {
	const seed = 11
	_, ts := newTestServer(t, Config{Seed: seed, Algorithms: []core.Algorithm{core.MICKEY}})

	var mu sync.Mutex
	var bodies [][]byte
	var wg sync.WaitGroup
	fetch := func(n int, timeout time.Duration) {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s/bytes?alg=mickey&n=%d", ts.URL, n), nil)
		if err != nil {
			t.Error(err)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return // gave up before the response started
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(body) != n {
			return // gave up mid-body
		}
		mu.Lock()
		bodies = append(bodies, body)
		mu.Unlock()
	}
	for i := 0; i < 32; i++ {
		wg.Add(2)
		go fetch(65536, time.Duration(i%5)*time.Millisecond)
		go fetch(4096, 10*time.Second)
	}
	wg.Wait()

	_, mbody, _ := get(t, ts.URL+"/metrics")
	passes := int(metricValue(t, mbody, "bsrngd_engine_chunks_produced_total"))
	tile(t, domainOne(t, core.MICKEY, seed, passes*passBytes), bodies, false)

	// The source is not wedged: a fresh request is served at once.
	if status, _, _ := get(t, ts.URL+"/bytes?alg=mickey&n=64"); status != http.StatusOK {
		t.Fatalf("request after the storm: status %d, want 200", status)
	}
}

// The skip-and-degrade lifecycle of one pooled source, driven
// deterministically by the corruption failpoint: condemned segments are
// skipped and counted; three in a row degrade the algorithm even while
// healthy bytes are unread; /healthz lets a degraded source screen the
// segment its next refill starts with, consuming nothing, and a clean
// one recovers it; a refill with no healthy segment answers 503 and
// keeps the unread bytes for the next request.
func TestPooledSkipAndDegrade(t *testing.T) {
	if !faultinject.Available() {
		t.Skip("faultinject compiled out")
	}
	t.Cleanup(faultinject.Reset)

	const seed = 9
	seg := core.SegmentBytes
	fp := "server.segment.corrupt." + core.TRIVIUM.String()
	faultinject.Reset()
	// The last three segments of the first pass.
	faultinject.ArmRange(fp, 62, 64)
	_, ts := newTestServer(t, Config{Seed: seed, Algorithms: []core.Algorithm{core.TRIVIUM}})
	lib := domainOne(t, core.TRIVIUM, seed, 6*passBytes)

	gauge := func(want float64) {
		t.Helper()
		_, mbody, _ := get(t, ts.URL+"/metrics")
		if got := metricValue(t, mbody, `bsrngd_health_degraded{alg="trivium"}`); got != want {
			t.Fatalf("degraded gauge %v, want %v", got, want)
		}
	}
	healthz := func(want int) {
		t.Helper()
		status, hz := getHealthz(t, ts.URL)
		if status != want || hz.Pools["trivium"].Degraded != (want != http.StatusOK) {
			t.Fatalf("healthz: status %d %+v, want %d", status, hz, want)
		}
	}
	pull := func(n, want int) []byte {
		t.Helper()
		status, body, _ := get(t, fmt.Sprintf("%s/bytes?alg=trivium&n=%d", ts.URL, n))
		if status != want {
			t.Fatalf("pull %d: status %d, want %d", n, status, want)
		}
		return body
	}

	// Pass 0: segments 61..63 are condemned and skipped; the trailing run
	// of three degrades the algorithm with 60 healthy segments unread.
	got := pull(seg, http.StatusOK)
	gauge(1)
	// /healthz screens the first segment of pass 1, which is clean:
	// recovered.
	healthz(http.StatusOK)
	gauge(0)
	got = append(got, pull(60*seg, http.StatusOK)...)
	got = append(got, pull(63*seg, http.StatusOK)...)
	want := append(append([]byte(nil), lib[:61*seg]...), lib[64*seg:127*seg]...)
	if !bytes.Equal(got, want) {
		t.Fatal("served bytes are not the stream less segments 61..63")
	}

	// Every later segment is condemned. A request for more than the one
	// unread segment refills pass 2, which yields nothing: 503, and the
	// unread segment stays for the next request.
	faultinject.ArmRange(fp, 1, 1<<40)
	pull(2*seg, http.StatusServiceUnavailable)
	gauge(1)
	if !bytes.Equal(pull(seg, http.StatusOK), lib[127*seg:128*seg]) {
		t.Fatal("the unread segment was not kept through the failed refill")
	}
	healthz(http.StatusServiceUnavailable) // its probe condemns pass 3's first segment
	if got := faultinject.Fired(fp); got != 65 {
		t.Fatalf("failpoint fired %d times, want 65 (pass 2 and the probe)", got)
	}
	_, mbody, _ := get(t, ts.URL+"/metrics")
	var failures float64
	for _, line := range strings.Split(string(mbody), "\n") {
		if strings.HasPrefix(line, `bsrngd_health_failures_total{alg="trivium"`) {
			var v float64
			fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v)
			failures += v
		}
	}
	if failures != 3+65 {
		t.Fatalf("health failures counted %v, want %d", failures, 3+65)
	}

	// Healed: the next probe finds pass 3's first segment clean, and
	// the probes consumed nothing, so pass 3 comes next.
	faultinject.Disarm(fp)
	healthz(http.StatusOK)
	if !bytes.Equal(pull(2*seg, http.StatusOK), lib[192*seg:194*seg]) {
		t.Fatal("bytes after recovery are not pass 3")
	}
}

// A pooled /bytes gets all of its bytes or a 503, never a body shorter
// than its Content-Length. With the corruption failpoint armed from its
// second hit, the first refill keeps one segment and the next keeps
// none: a 4 KiB /bytes answers 503, and the kept segment is served to
// the next request.
func TestPooledBytesAllOrNothing(t *testing.T) {
	if !faultinject.Available() {
		t.Skip("faultinject compiled out")
	}
	t.Cleanup(faultinject.Reset)

	const seed = 12
	fp := "server.segment.corrupt." + core.TRIVIUM.String()
	faultinject.Reset()
	faultinject.ArmRange(fp, 2, 1<<40)
	_, ts := newTestServer(t, Config{Seed: seed, Algorithms: []core.Algorithm{core.TRIVIUM}})

	status, body, _ := get(t, ts.URL+"/bytes?alg=trivium&n=4096")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("4 KiB /bytes over one healthy segment: status %d with %d bytes, want 503", status, len(body))
	}
	faultinject.Disarm(fp)
	status, body, _ = get(t, ts.URL+"/bytes?alg=trivium&n=4096")
	if status != http.StatusOK {
		t.Fatalf("/bytes after healing: status %d, want 200", status)
	}
	lib := domainOne(t, core.TRIVIUM, seed, 3*passBytes)
	want := append(append([]byte(nil), lib[:core.SegmentBytes]...), lib[2*passBytes:2*passBytes+core.SegmentBytes]...)
	if !bytes.Equal(body, want) {
		t.Fatal("/bytes after healing is not the kept segment followed by the next refill's first")
	}
}

// A degraded source recovers through /healthz however many healthy
// bytes it holds unread. Each round arms the corruption failpoint on
// hits 62–64, so a refill keeps 61 segments and still ends in a
// condemned run. Before probes screened one segment, two such probe
// refills left more than a pass unread, probes stopped refilling, and
// /healthz stayed 503 until pooled reads (which a router no longer
// sends a demoted node) drained the buffer.
func TestDegradedSourceRecoversWithBytesUnread(t *testing.T) {
	if !faultinject.Available() {
		t.Skip("faultinject compiled out")
	}
	t.Cleanup(faultinject.Reset)

	fp := "server.segment.corrupt." + core.GRAIN.String()
	faultinject.Reset()
	_, ts := newTestServer(t, Config{Seed: 13, Algorithms: []core.Algorithm{core.GRAIN}})

	faultinject.ArmRange(fp, 62, 64)
	if status, _, _ := get(t, ts.URL+"/bytes?alg=grain&n=4096"); status != http.StatusOK {
		t.Fatalf("/bytes: status %d", status)
	}
	_, mbody, _ := get(t, ts.URL+"/metrics")
	if got := metricValue(t, mbody, `bsrngd_health_degraded{alg="grain"}`); got != 1 {
		t.Fatalf("degraded gauge %v after a refill ending in a condemned run, want 1", got)
	}
	for range 2 {
		faultinject.ArmRange(fp, 62, 64)
		getHealthz(t, ts.URL)
	}
	faultinject.Disarm(fp)
	if status, hz := getHealthz(t, ts.URL); status != http.StatusOK || hz.Pools["grain"].Degraded {
		t.Fatalf("healthz after the fault cleared: status %d %+v, want 200", status, hz)
	}
}
