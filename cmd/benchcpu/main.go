// Command benchcpu measures the sustained CPU throughput of every
// bitsliced engine at every worker count on the 64-lane datapath, and
// writes the result as machine-readable JSON (the committed
// BENCH_cpu.json; `make bench` regenerates it and CI uploads it as an
// artifact).
//
// Usage:
//
//	benchcpu -out BENCH_cpu.json -mintime 1s
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
)

// result is one measured cell of the alg × workers grid. Lanes is always
// core.DefaultLanes; the field keeps benchcompare's alg/lanes/workers
// cell keys.
type result struct {
	Alg         string  `json:"alg"`
	Lanes       int     `json:"lanes"`
	Workers     int     `json:"workers"`
	Bytes       int64   `json:"bytes"`
	Seconds     float64 `json:"seconds"`
	BytesPerSec float64 `json:"bytes_per_sec"`
	// AllocsPerMiB is heap allocations per MiB delivered during the
	// measurement window — ~0 pins the allocation-free steady state.
	AllocsPerMiB float64 `json:"allocs_per_mib"`
}

// report is the full BENCH_cpu.json document.
type report struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	MinSeconds float64  `json:"min_seconds_per_cell"`
	Results    []result `json:"results"`
}

func main() {
	out := flag.String("out", "BENCH_cpu.json", "output path (- for stdout)")
	minTime := flag.Duration("mintime", time.Second, "minimum measurement time per cell")
	flag.Parse()

	rep, err := measure(*minTime, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcpu:", err)
		os.Exit(1)
	}
	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcpu:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchcpu:", err)
		os.Exit(1)
	}
}

// measure runs the full grid. Each cell streams from a dedicated Stream
// so engine construction (key schedules, init clocking) is amortized out
// of the steady-state number; progress goes to log.
func measure(minTime time.Duration, log io.Writer) (*report, error) {
	rep := &report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		MinSeconds: minTime.Seconds(),
	}
	workerSet := workerSweep(runtime.NumCPU())
	for _, alg := range core.ServedAlgorithms {
		for _, workers := range workerSet {
			r, err := measureCell(alg, workers, minTime)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(log, "benchcpu: %-8s workers=%-3d %8.1f MB/s %6.2f allocs/MiB\n",
				r.Alg, r.Workers, r.BytesPerSec/1e6, r.AllocsPerMiB)
			rep.Results = append(rep.Results, r)
		}
	}
	return rep, nil
}

// workerSweep returns the worker counts to measure on a machine with
// numCPU logical CPUs: every power of two up to numCPU, plus numCPU
// itself, so the scaling curve in BENCH_cpu.json has enough points to
// show where throughput stops growing.
func workerSweep(numCPU int) []int {
	set := []int{1}
	for w := 2; w < numCPU; w *= 2 {
		set = append(set, w)
	}
	if numCPU > 1 {
		set = append(set, numCPU)
	}
	return set
}

// errWindowDone stops Stream.WriteTo once a cell's measurement window
// has elapsed.
var errWindowDone = errors.New("benchcpu: measurement window elapsed")

// benchSink counts delivered bytes without copying them and fails the
// write after the deadline, ending WriteTo. Consuming through WriteTo
// measures the zero-copy serving path (the same one bsrngd uses for
// bulk /bytes responses): chunks travel from the engines to the sink
// without an intermediate consumer buffer.
type benchSink struct {
	total    int64
	deadline time.Time
}

func (b *benchSink) Write(p []byte) (int, error) {
	b.total += int64(len(p))
	if time.Now().After(b.deadline) {
		return len(p), errWindowDone
	}
	return len(p), nil
}

func measureCell(alg core.Algorithm, workers int, minTime time.Duration) (result, error) {
	s, err := core.NewStream(alg, 1, core.StreamConfig{Workers: workers})
	if err != nil {
		return result{}, err
	}
	defer s.Close()
	// Warm up: fill the staging pipeline before the clock (and the
	// allocation meter) starts.
	warm := &benchSink{deadline: time.Now().Add(minTime / 10)}
	if _, err := s.WriteTo(warm); err != nil && !errors.Is(err, errWindowDone) {
		return result{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sink := &benchSink{deadline: time.Now().Add(minTime)}
	start := time.Now()
	if _, err := s.WriteTo(sink); err != nil && !errors.Is(err, errWindowDone) {
		return result{}, err
	}
	elapsed := time.Since(start).Seconds()
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs - m0.Mallocs)
	return result{
		Alg:          alg.String(),
		Lanes:        core.DefaultLanes,
		Workers:      workers,
		Bytes:        sink.total,
		Seconds:      elapsed,
		BytesPerSec:  float64(sink.total) / elapsed,
		AllocsPerMiB: allocs / (float64(sink.total) / (1 << 20)),
	}, nil
}
