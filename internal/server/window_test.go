package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/internal/aes"
	"repro/internal/core"
)

// Addressed windows are served by gathered batches, and the window
// counters say how: the pass counters how full the bitsliced passes run,
// the one-lane counter how many segments ran one lane at a time. A lone
// 1 MiB window at a mid-segment offset touches 513 segments; its chunks
// after the first are segment-aligned, so it takes at most ⌈512/64⌉+1
// passes, and its 777-byte last chunk is one segment, which trivium
// serves one lane at a time. Concurrent 8 KiB windows each come back
// byte-identical to the library, and every touched segment is counted
// exactly once, as a lane or as a one-lane segment.
func TestWindowPassMetrics(t *testing.T) {
	const seed = 6
	cfg := Config{Seed: seed, Algorithms: []core.Algorithm{core.TRIVIUM}}
	_, ts := newTestServer(t, cfg)
	want := func(domain, offset uint64, n int) []byte {
		r, err := core.NewSegmentReader(core.TRIVIUM, seed, domain, 0, offset)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	counters := func() (passes, lanes, oneLane float64) {
		_, body, _ := get(t, ts.URL+"/metrics")
		return metricValue(t, body, `bsrngd_window_passes_total{alg="trivium"}`),
			metricValue(t, body, `bsrngd_window_lanes_total{alg="trivium"}`),
			metricValue(t, body, `bsrngd_window_one_lane_segments_total{alg="trivium"}`)
	}

	status, body, _ := get(t, ts.URL+"/stream?alg=trivium&domain=3&off=777&n=1048576")
	if status != http.StatusOK {
		t.Fatalf("1 MiB window: status %d", status)
	}
	if !bytes.Equal(body, want(3, 777, 1<<20)) {
		t.Fatal("1 MiB window diverges from NewSegmentReader")
	}
	passes, lanes, oneLane := counters()
	if passes > 512/64+1 {
		t.Errorf("lone 1 MiB window ran %v passes, want ≤ %d", passes, 512/64+1)
	}
	if lanes+oneLane != 513 {
		t.Errorf("lone 1 MiB window used %v lanes and %v one-lane segments, want 513 in all (one per touched segment)", lanes, oneLane)
	}
	if oneLane != 1 {
		t.Errorf("lone 1 MiB window ran %v segments one lane at a time, want 1 (its last chunk)", oneLane)
	}

	const callers = 8
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seg, off := uint64(10*i), uint64(100*i) // 4 whole segments at i=0, 5 touched otherwise
			status, body, _ := get(t, fmt.Sprintf("%s/stream?alg=trivium&domain=%d&segment=%d&off=%d&n=8192", ts.URL, i, seg, off))
			if status != http.StatusOK || !bytes.Equal(body, want(uint64(i), seg*core.SegmentBytes+off, 8192)) {
				errs <- fmt.Errorf("window %d: status %d or wrong bytes", i, status)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	passes2, lanes2, oneLane2 := counters()
	if got := lanes2 - lanes + oneLane2 - oneLane; got != 4+5*(callers-1) {
		t.Errorf("8 windows used %v lanes and one-lane segments, want %d", got, 4+5*(callers-1))
	}
	if got := passes2 - passes; got > callers {
		t.Errorf("8 windows ran %v passes, want at most %d", got, callers)
	}
}

// Each algorithm has one engine. New builds exactly one window source
// per served algorithm, and the pooled source refills through it, so a
// grain pooled refill counts as one full pass of the window counters
// and no one-lane segment: its 64 demands are above grain's one-lane
// crossover. A lease
// stream for an algorithm the server does not serve is refused with 400
// and builds no engine: the table New fills is never written again.
func TestOneEnginePerAlgorithm(t *testing.T) {
	const seed = 5
	algs := []core.Algorithm{core.GRAIN, core.TRIVIUM}
	s, ts := newTestServer(t, Config{Seed: seed, Algorithms: algs})
	if len(s.engines) != len(algs) {
		t.Fatalf("New built %d engines, want %d", len(s.engines), len(algs))
	}
	for _, alg := range algs {
		if e := s.engines[alg]; e == nil || e.ws == nil || e.pooled.ws != e.ws {
			t.Errorf("%v: pooled source does not read through the algorithm's window source", alg)
		}
	}

	if status, _, _ := get(t, ts.URL+"/bytes?alg=grain&n=4096"); status != http.StatusOK {
		t.Fatalf("pooled /bytes: status %d", status)
	}
	_, mbody, _ := get(t, ts.URL+"/metrics")
	if p, l := metricValue(t, mbody, `bsrngd_window_passes_total{alg="grain"}`),
		metricValue(t, mbody, `bsrngd_window_lanes_total{alg="grain"}`); p != 1 || l != 64 {
		t.Errorf("one pooled refill counted %v passes and %v lanes, want 1 and 64", p, l)
	}
	if o := metricValue(t, mbody, `bsrngd_window_one_lane_segments_total{alg="grain"}`); o != 0 {
		t.Errorf("one grain pooled refill counted %v one-lane segments, want 0", o)
	}

	lease := Lease{Alg: core.MICKEY, Domain: leaseDomainBase + 1, Segments: 2}
	if status, body, _ := get(t, ts.URL+"/stream?lease="+lease.id()); status != http.StatusBadRequest {
		t.Fatalf("lease stream for an unserved algorithm: status %d (%s), want 400", status, body)
	}
	if status, _, _ := get(t, ts.URL+"/lease/"+lease.id()); status != http.StatusNotFound {
		t.Fatalf("GET /lease for an unserved algorithm: status %d, want 404", status)
	}
	if len(s.engines) != len(algs) || s.engines[core.MICKEY] != nil {
		t.Errorf("after the unserved lease stream: %d engines, want %d and none for mickey", len(s.engines), len(algs))
	}
}

// A 4 KiB addressed grain window at a segment boundary is one batch of
// two demands, below grain's one-lane crossover: it counts two one-lane
// segments and no pass, and comes back byte-identical to the library.
func TestGrainWindowOneLane(t *testing.T) {
	const seed = 11
	_, ts := newTestServer(t, Config{Seed: seed, Algorithms: []core.Algorithm{core.GRAIN}})
	status, body, _ := get(t, ts.URL+"/stream?alg=grain&domain=3&segment=16&n=4096")
	if status != http.StatusOK {
		t.Fatalf("4 KiB grain window: status %d", status)
	}
	r, err := core.NewSegmentReader(core.GRAIN, seed, 3, 0, 16*core.SegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 4096)
	if _, err := io.ReadFull(r, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("4 KiB grain window diverges from NewSegmentReader")
	}
	_, mbody, _ := get(t, ts.URL+"/metrics")
	if p, o := metricValue(t, mbody, `bsrngd_window_passes_total{alg="grain"}`),
		metricValue(t, mbody, `bsrngd_window_one_lane_segments_total{alg="grain"}`); p != 0 || o != 2 {
		t.Errorf("4 KiB grain window counted %v passes and %v one-lane segments, want 0 and 2", p, o)
	}
}

// A pooled xorgens refill is one batch of 64 segment demands, and
// xorgens serves every batch one lane at a time: the refill counts 64
// one-lane segments and no pass. So does an AES-CTR refill where the
// CPU has AES-NI; elsewhere it is one full pass.
func TestPooledRefillOneLane(t *testing.T) {
	_, ts := newTestServer(t, Config{Seed: 9, Algorithms: []core.Algorithm{core.XORGENS, core.AESCTR}})
	for _, alg := range []string{"xorgens", "aes-ctr"} {
		if status, _, _ := get(t, ts.URL+"/bytes?alg="+alg+"&n=4096"); status != http.StatusOK {
			t.Fatalf("%s pooled /bytes: status %d", alg, status)
		}
	}
	_, mbody, _ := get(t, ts.URL+"/metrics")
	read := func(name, alg string) float64 {
		return metricValue(t, mbody, fmt.Sprintf(`bsrngd_window_%s_total{alg=%q}`, name, alg))
	}
	want := map[string][3]float64{"xorgens": {0, 0, 64}, "aes-ctr": {0, 0, 64}}
	if !aes.HasAESNI {
		want["aes-ctr"] = [3]float64{1, 64, 0}
	}
	for alg, w := range want {
		if got := [3]float64{read("passes", alg), read("lanes", alg), read("one_lane_segments", alg)}; got != w {
			t.Errorf("%s pooled refill: passes, lanes, one-lane segments = %v, want %v", alg, got, w)
		}
	}
}
