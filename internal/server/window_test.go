package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"

	"repro/internal/core"
)

// Addressed windows are served by gathered passes, and the pass counters
// say how full those passes run. A lone 1 MiB window at a mid-segment
// offset touches 513 segments; its chunks after the first are
// segment-aligned, so it takes at most ⌈512/64⌉+1 passes. Concurrent
// 8 KiB windows each come back byte-identical to the library, and every
// touched segment is counted as exactly one lane.
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
	counters := func() (passes, lanes float64) {
		_, body, _ := get(t, ts.URL+"/metrics")
		return metricValue(t, body, `bsrngd_window_passes_total{alg="trivium"}`),
			metricValue(t, body, `bsrngd_window_lanes_total{alg="trivium"}`)
	}

	status, body, _ := get(t, ts.URL+"/stream?alg=trivium&domain=3&off=777&n=1048576")
	if status != http.StatusOK {
		t.Fatalf("1 MiB window: status %d", status)
	}
	if !bytes.Equal(body, want(3, 777, 1<<20)) {
		t.Fatal("1 MiB window diverges from NewSegmentReader")
	}
	passes, lanes := counters()
	if passes > 512/64+1 {
		t.Errorf("lone 1 MiB window ran %v passes, want ≤ %d", passes, 512/64+1)
	}
	if lanes != 513 {
		t.Errorf("lone 1 MiB window used %v lanes, want 513 (one per touched segment)", lanes)
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
	passes2, lanes2 := counters()
	if got := lanes2 - lanes; got != 4+5*(callers-1) {
		t.Errorf("8 windows used %v lanes, want %d", got, 4+5*(callers-1))
	}
	if got := passes2 - passes; got < 1 || got > callers {
		t.Errorf("8 windows ran %v passes, want 1..%d", got, callers)
	}
}

// Each algorithm has one engine. New builds exactly one window source
// per served algorithm, and the pooled source refills through it, so a
// pooled refill counts as one full pass of the window counters. A lease
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
