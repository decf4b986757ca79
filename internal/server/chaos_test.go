package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/health"
)

// metricValue extracts one un-labeled or exact-labeled sample from a
// /metrics body.
func metricValue(t *testing.T, body []byte, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseFloat(strings.TrimSpace(line[len(name)+1:]), 64)
			if err != nil {
				t.Fatalf("metric %s: bad sample %q", name, line)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition:\n%s", name, body)
	return 0
}

func getHealthz(t *testing.T, url string) (int, healthzResponse) {
	t.Helper()
	status, body, _ := get(t, url+"/healthz")
	var hz healthzResponse
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("healthz is not JSON (%v): %s", err, body)
	}
	return status, hz
}

// domainOne returns the first n bytes of the pooled stream of alg under
// seed: domain 1, what a 1-worker core.Stream serves.
func domainOne(t *testing.T, alg core.Algorithm, seed uint64, n int) []byte {
	t.Helper()
	r, err := core.NewSegmentReader(alg, seed, pooledDomain, core.DefaultLanes, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The chaos arc, end to end: healthy deterministic serving, then
// fault-injected corruption under concurrent traffic — condemned
// segments are skipped, never served, until the algorithm degrades and
// /healthz answers 503 — then fault removal and a return to healthy
// service, with the health metrics accounting for every phase.
func TestChaosSkipDegradeAndRecovery(t *testing.T) {
	if !faultinject.Available() {
		t.Skip("faultinject compiled out")
	}
	t.Cleanup(faultinject.Reset)

	const seed = 42
	_, ts := newTestServer(t, Config{Seed: seed, Algorithms: []core.Algorithm{core.MICKEY}})
	fpCorrupt := "server.segment.corrupt." + core.MICKEY.String()

	// --- Phase A: healthy baseline is the domain-1 library stream ---
	var got []byte
	for i := 0; i < 8; i++ {
		status, body, _ := get(t, ts.URL+"/bytes?alg=mickey&n=2048")
		if status != http.StatusOK {
			t.Fatalf("baseline request %d: status %d", i, status)
		}
		got = append(got, body...)
	}
	if !bytes.Equal(got, domainOne(t, core.MICKEY, seed, len(got))) {
		t.Fatal("healthy bytes diverge from the library stream")
	}

	// --- Phase B: corrupt every segment under concurrent traffic ---
	faultinject.ArmRange(fpCorrupt, 1, 1<<40)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var zeroRuns atomic.Int64
	zero := make([]byte, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := ts.Client()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(ts.URL + "/bytes?alg=mickey&n=2048")
				if err != nil {
					continue
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK && bytes.Contains(body, zero) {
					zeroRuns.Add(1)
				}
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("chaos traffic: unexpected status %d", resp.StatusCode)
				}
			}
		}()
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		status, hz := getHealthz(t, ts.URL)
		if status == http.StatusServiceUnavailable && hz.Status == "degraded" {
			ph := hz.Pools["mickey"]
			if !ph.Degraded || ph.HealthFailures == 0 || ph.LastFailure == "" {
				t.Fatalf("degraded source hides its state: %+v", ph)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz never degraded; last: status=%d %+v", status, hz)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if n := zeroRuns.Load(); n != 0 {
		t.Fatalf("%d responses carried a corrupted segment", n)
	}

	// Once the healthy bytes buffered before the fault are spent, a
	// request gets 503: its refill yields no healthy segment.
	for i := 0; ; i++ {
		status, _, _ := get(t, ts.URL+"/bytes?alg=mickey&n=2048")
		if status == http.StatusServiceUnavailable {
			break
		}
		if status != http.StatusOK || i == 128 {
			t.Fatalf("request %d to a degraded source: status %d, want 503 once drained", i, status)
		}
	}
	_, mbody, _ := get(t, ts.URL+"/metrics")
	if got := metricValue(t, mbody, `bsrngd_health_degraded{alg="mickey"}`); got != 1 {
		t.Errorf("degraded gauge = %v, want 1", got)
	}
	if !strings.Contains(string(mbody), `bsrngd_health_failures_total{alg="mickey",test="`) {
		t.Errorf("no per-test health failure counters exported:\n%s", mbody)
	}

	// --- Phase C: heal the fault; the next refill recovers ---
	// No pooled traffic is needed: /healthz lets a degraded source with
	// nothing buffered try one refill.
	faultinject.Disarm(fpCorrupt)
	for {
		status, hz := getHealthz(t, ts.URL)
		if status == http.StatusOK && hz.Status == "ok" && !hz.Pools["mickey"].Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("source never recovered; last: status=%d %+v", status, hz)
		}
		time.Sleep(5 * time.Millisecond)
	}
	_, mbody, _ = get(t, ts.URL+"/metrics")
	if got := metricValue(t, mbody, `bsrngd_health_degraded{alg="mickey"}`); got != 0 {
		t.Errorf("degraded gauge = %v after recovery, want 0", got)
	}

	// Recovered service is healthy: traffic flows, the segments pass
	// the online tests, and no new failures accumulate.
	_, before := getHealthz(t, ts.URL)
	checker := health.NewChecker(health.Config{})
	for i := 0; i < 8; i++ {
		status, body, _ := get(t, ts.URL+"/bytes?alg=mickey&n=2048")
		if status != http.StatusOK {
			t.Fatalf("post-recovery request %d: status %d", i, status)
		}
		if err := checker.Check(body); err != nil {
			t.Fatalf("post-recovery segment %d fails health tests: %v", i, err)
		}
	}
	_, after := getHealthz(t, ts.URL)
	if after.Pools["mickey"].HealthFailures != before.Pools["mickey"].HealthFailures {
		t.Errorf("health failures grew after recovery: %d -> %d",
			before.Pools["mickey"].HealthFailures, after.Pools["mickey"].HealthFailures)
	}
}

// Two identically-faulted servers must serve identical bytes, and those
// bytes must be the library stream with the condemned segment skipped —
// the fault episode itself is deterministic, not just the healthy
// prefix.
func TestChaosDoubleRunByteIdentical(t *testing.T) {
	if !faultinject.Available() {
		t.Skip("faultinject compiled out")
	}
	t.Cleanup(faultinject.Reset)

	const (
		seed       = 42
		corruptNth = 3 // corrupt the 3rd checked segment of the run
		segments   = 8
	)
	fpCorrupt := "server.segment.corrupt." + core.MICKEY.String()

	run := func() []byte {
		faultinject.Reset()
		// Armed BEFORE the server exists: the Nth checked segment is
		// segment N-1 of the pooled stream, independent of request
		// timing.
		faultinject.Arm(fpCorrupt, corruptNth)
		_, ts := newTestServer(t, Config{Seed: seed, Algorithms: []core.Algorithm{core.MICKEY}})
		var out []byte
		for i := 0; i < segments; i++ {
			status, body, _ := get(t, ts.URL+"/bytes?alg=mickey&n=2048")
			if status != http.StatusOK {
				t.Fatalf("segment %d: status %d", i, status)
			}
			out = append(out, body...)
		}
		return out
	}

	a := run()
	b := run()
	if faultinject.Fired(fpCorrupt) != 1 {
		t.Fatal("corruption failpoint never fired — the scenario is vacuous")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("identically-faulted servers served different bytes")
	}

	lib := domainOne(t, core.MICKEY, seed, (segments+1)*core.SegmentBytes)
	skip := (corruptNth - 1) * core.SegmentBytes
	want := append(lib[:skip:skip], lib[skip+core.SegmentBytes:]...)
	if !bytes.Equal(a, want) {
		t.Fatal("served chaos bytes are not the library stream less the condemned segment")
	}
	zero := make([]byte, core.SegmentBytes)
	for off := 0; off < len(a); off += core.SegmentBytes {
		if bytes.Equal(a[off:off+core.SegmentBytes], zero) {
			t.Fatalf("corrupted segment at offset %d was served to a client", off)
		}
	}
}

// MaxInflight sheds excess load with 429 + Retry-After instead of
// queueing it on a source, and the shed requests are visible in the
// admission metrics.
func TestAdmissionControlShedsLoad(t *testing.T) {
	s, err := New(Config{
		Seed:        5,
		Algorithms:  []core.Algorithm{core.GRAIN},
		MaxInflight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHookServing = func() {
		select {
		case entered <- struct{}{}:
			<-release
		default: // later requests pass straight through
		}
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})

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
	<-entered // first request holds the in-flight budget

	status, _, hdr := get(t, ts.URL+"/bytes?alg=grain&n=64")
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: status %d, want 429", status)
	}
	if hdr.Get("Retry-After") != "1" {
		t.Errorf("Retry-After = %q, want %q", hdr.Get("Retry-After"), "1")
	}

	close(release)
	if st := <-done; st != http.StatusOK {
		t.Fatalf("in-budget request: status %d, want 200", st)
	}
	// The budget is released with the request.
	if status, _, _ := get(t, ts.URL+"/bytes?alg=grain&n=64"); status != http.StatusOK {
		t.Fatalf("request after budget freed: status %d, want 200", status)
	}

	_, mbody, _ := get(t, ts.URL+"/metrics")
	if got := metricValue(t, mbody, "bsrngd_admission_rejected_total"); got != 1 {
		t.Errorf("admission_rejected_total = %v, want 1", got)
	}
	if !strings.Contains(string(mbody), `bsrngd_requests_total{alg="grain",status="429"} 1`) {
		t.Errorf("shed request not counted in bsrngd_requests_total:\n%s", mbody)
	}
}

// /healthz carries the per-algorithm source state as JSON while keeping
// the 200-when-ok contract, and reports nothing checked when the online
// tests are disabled.
func TestHealthzReportsPoolState(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 2})

	if status, _, _ := get(t, ts.URL+"/bytes?alg=grain&n=2048"); status != http.StatusOK {
		t.Fatal("priming request failed")
	}
	status, body, hdr := get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz status %d, want 200", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("healthz content type %q", ct)
	}
	var hz healthzResponse
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatalf("healthz is not JSON (%v): %s", err, body)
	}
	if hz.Status != "ok" {
		t.Errorf("status %q, want ok", hz.Status)
	}
	if len(hz.Pools) != len(core.ServedAlgorithms) {
		t.Errorf("healthz reports %d sources, want %d", len(hz.Pools), len(core.ServedAlgorithms))
	}
	for _, alg := range core.ServedAlgorithms {
		ph, ok := hz.Pools[alg.String()]
		if !ok {
			t.Errorf("source %v missing from healthz", alg)
			continue
		}
		if ph.Degraded || ph.HealthFailures != 0 {
			t.Errorf("source %v state %+v, want healthy", alg, ph)
		}
	}
	// One refill checked one pass; untouched algorithms checked nothing.
	if got := hz.Pools["grain"].SegmentsChecked; got != 64 {
		t.Errorf("grain source checked %d segments, want 64", got)
	}
	if got := hz.Pools["mickey"].SegmentsChecked; got != 0 {
		t.Errorf("idle mickey source checked %d segments, want 0", got)
	}

	// With the online tests disabled, nothing is checked and nothing can
	// degrade.
	_, ts2 := newTestServer(t, Config{
		Seed:          2,
		Algorithms:    []core.Algorithm{core.MICKEY},
		DisableHealth: true,
	})
	if status, _, _ := get(t, ts2.URL+"/bytes?alg=mickey&n=2048"); status != http.StatusOK {
		t.Fatal("health-off request failed")
	}
	status, hz2 := getHealthz(t, ts2.URL)
	if status != http.StatusOK || hz2.Status != "ok" {
		t.Fatalf("health-off healthz: status=%d %+v", status, hz2)
	}
	if ph := hz2.Pools["mickey"]; ph.Degraded || ph.SegmentsChecked != 0 || ph.HealthFailures != 0 {
		t.Errorf("health-off source state %+v, want zero health activity", ph)
	}
}
