package main

import (
	"io"
	"testing"
	"time"

	"repro/internal/core"
)

// A fast measurement pass must cover the whole alg × workers grid at 64
// lanes and report sane numbers — this is the shape contract for the
// committed BENCH_cpu.json.
func TestMeasureGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement loop")
	}
	rep, err := measure(time.Millisecond, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(core.ServedAlgorithms) * len(workerSweep(rep.NumCPU))
	if len(rep.Results) != wantCells {
		t.Fatalf("got %d cells, want %d", len(rep.Results), wantCells)
	}
	seen := map[[3]interface{}]bool{}
	for _, r := range rep.Results {
		if r.BytesPerSec <= 0 || r.Bytes <= 0 || r.Seconds <= 0 {
			t.Errorf("%s lanes=%d workers=%d: non-positive measurement %+v",
				r.Alg, r.Lanes, r.Workers, r)
		}
		if r.Lanes != core.DefaultLanes {
			t.Errorf("%s workers=%d: lanes=%d, want %d", r.Alg, r.Workers, r.Lanes, core.DefaultLanes)
		}
		if r.AllocsPerMiB < 0 {
			t.Errorf("%s lanes=%d workers=%d: negative allocs_per_mib %+v",
				r.Alg, r.Lanes, r.Workers, r)
		}
		key := [3]interface{}{r.Alg, r.Lanes, r.Workers}
		if seen[key] {
			t.Errorf("duplicate cell %v", key)
		}
		seen[key] = true
	}
	if rep.GoVersion == "" || rep.GOARCH == "" || rep.NumCPU < 1 {
		t.Errorf("incomplete metadata: %+v", rep)
	}
}

// The worker sweep must walk powers of two up to NumCPU and always end
// at NumCPU itself, without duplicating the top point.
func TestWorkerSweep(t *testing.T) {
	cases := []struct {
		numCPU int
		want   []int
	}{
		{1, []int{1}},
		{2, []int{1, 2}},
		{4, []int{1, 2, 4}},
		{6, []int{1, 2, 4, 6}},
		{8, []int{1, 2, 4, 8}},
		{12, []int{1, 2, 4, 8, 12}},
		{16, []int{1, 2, 4, 8, 16}},
	}
	for _, tc := range cases {
		got := workerSweep(tc.numCPU)
		if len(got) != len(tc.want) {
			t.Errorf("workerSweep(%d) = %v, want %v", tc.numCPU, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("workerSweep(%d) = %v, want %v", tc.numCPU, got, tc.want)
				break
			}
		}
	}
}
