package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
)

// algs is the served algorithm matrix every workload rotates over.
var algs = core.ServedAlgorithms

// algLabel names an algorithm inside a metric name, where parentheses
// are not allowed: chaotic(grain) becomes chaotic-grain.
func algLabel(i int) string {
	if a := algs[i]; a.IsChaotic() {
		return "chaotic-" + a.Base().String()
	}
	return algs[i].String()
}

// draw is a splitmix64 sequence: the benchmark's inputs (cipher keys,
// loadtest workload seeds) are drawn from the run's seed with it.
type draw struct{ s uint64 }

func (d *draw) next() uint64 {
	d.s += 0x9E3779B97F4A7C15
	z := d.s
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// tally counts operations attempted and failed; a failed operation is a
// transport error, an unexpected status, a body with a run of zero bytes
// or a verification mismatch. The first failure's description is kept.
type tally struct {
	attempted, failed int
	first             string
}

func (t *tally) fail(format string, args ...any) { t.failN(1, format, args...) }

func (t *tally) failN(n int, format string, args ...any) {
	t.failed += n
	if t.first == "" {
		t.first = fmt.Sprintf(format, args...)
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.first == "" {
		t.first = o.first
	}
}

// window is what one measurement window saw. A unit is what one rate is
// taken over: a pair of 1 MiB library writes, or one loadtest batch.
type window struct {
	elapsed time.Duration
	rates   [][]float64     // per algorithm: bytes/s of each unit
	bytes   []int64         // per algorithm
	busy    []time.Duration // per algorithm: summed unit time
	ops     int             // HTTP requests or library writes
	opTime  time.Duration   // their summed latency
	tally   tally
}

func newWindow() window {
	return window{rates: make([][]float64, len(algs)), bytes: make([]int64, len(algs)),
		busy: make([]time.Duration, len(algs))}
}

// add records one unit of alg: n bytes in d, made of ops operations whose
// latencies sum to opTime.
func (w *window) add(alg int, n int64, d time.Duration, ops int, opTime time.Duration) {
	w.rates[alg] = append(w.rates[alg], float64(n)/d.Seconds())
	w.bytes[alg] += n
	w.busy[alg] += d
	w.ops += ops
	w.opTime += opTime
}

// throughput is the window's delivered bytes per second.
func (w window) throughput() float64 {
	var n int64
	for _, b := range w.bytes {
		n += b
	}
	return float64(n) / w.elapsed.Seconds()
}

// system is a workload's system under test, as its set-up built it.
type system interface {
	// measure drives the system for about d and reports what it saw.
	measure(d time.Duration) window
	// verify runs the output checks deferred out of the timed windows.
	verify(t *tally)
	close()
}

// workload is one traffic mix. setup builds the system and returns once
// the first bytes of every algorithm were checked against ref (the
// first bytes of domain 1 of the reference seed, per algorithm).
type workload struct {
	name string
	// lib workloads generate with the run's seed; the HTTP workloads
	// run the daemon with daemonSeed and draw their requests from it.
	lib   bool
	setup func(seed uint64, ref [][]byte, tr *tracer, tl *tally) (system, error)
}

var workloads = []workload{
	{name: "lib-bulk", lib: true, setup: setupLib},
	{name: "served-mix", setup: setupHTTP(1)},
	{name: "served-routed", setup: setupHTTP(clusterNodes)},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// refBytes is how much of each algorithm's stream set-up verifies.
const refBytes = 64 << 10

// references returns the first n bytes of domain 1 of seed for every
// algorithm: what a 1-worker core.Stream, and shard 0 of the daemon,
// deliver first.
func references(seed uint64, n int) ([][]byte, error) {
	refs := make([][]byte, len(algs))
	for i, alg := range algs {
		r, err := core.NewSegmentReader(alg, seed, 1, core.DefaultLanes, 0)
		if err != nil {
			return nil, err
		}
		refs[i] = make([]byte, n)
		if _, err := io.ReadFull(r, refs[i]); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// endToEnd derives the end-to-end metrics from an untraced window. An
// algorithm's rate is its bytes over the time its batches ran, except in
// the library workload, which reports its fastest pair of 1 MiB writes:
// see README.md, "Bounds", for why.
func endToEnd(m metricSet, w window, lib bool, memPeak uint64, memSamples int) {
	m.set("mem_mb", "MB", float64(memPeak)/1e6, memSamples)
	for a := range algs {
		rate := float64(w.bytes[a]) / w.busy[a].Seconds()
		if lib {
			rate = quantile(w.rates[a], 1)
		}
		m.set("gen_mbps."+algLabel(a), "MB/s", rate/1e6, len(w.rates[a]))
	}
}

// memSampler records peak HeapInuse every 250 ms until finish.
type memSampler struct {
	stop, done chan struct{}
	peak       uint64
	n          int
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			m.sample()
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

func (m *memSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.peak = max(m.peak, ms.HeapInuse)
	m.n++
}

// finish stops the sampler, takes a last sample and returns the peak
// and the number of samples.
func (m *memSampler) finish() (uint64, int) {
	close(m.stop)
	<-m.done
	m.sample()
	return m.peak, m.n
}
