// Command bench is bsrng's end-to-end benchmark. It measures the
// library and the bsrngd daemon the way their users see them — bulk
// bytes from core.Stream, and the repository's loadtest traffic over
// loopback HTTP, direct and through the cluster router — checks the
// outputs, and in traced runs splits the time into layers from the
// cipher kernels up to the router hop. BENCHMARK.json at the repository root
// names the workloads and metrics; README.md explains them.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload lib-bulk --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload served-routed --seed 1 --seconds 20 --trace 1 --spans spans.json
//	bash bench/run.sh --workload served-mix --seed 3 --record set-a.jsonl
//	bash bench/run.sh --compare set-a.jsonl set-b.jsonl
//	bash bench/run.sh --summarize set-a.jsonl traced.jsonl > bench/baseline.json
//
// The last line of a run's output is a JSON object with the keys
// correct, attempted, failed and metrics. Exit status: 0 for a correct
// run, 1 when some operation failed or an output did not verify (or,
// with --compare, when a metric is worse than its bound), 2 for a usage
// or set-up error.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	measure  time.Duration // the measured window
	warmup   time.Duration // discarded, after set-up
	setups   int           // set-up repetitions behind setup_s
	trace    bool
	rep      time.Duration // ladder repetition length
}

// env describes the machine a run measured.
type env struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model,omitempty"`
	// SleepOvershootMs is the median amount by which time.Sleep(50µs)
	// overshoots: the timer resolution an open loop would be bound by.
	SleepOvershootMs float64 `json:"sleep_50us_overshoot_ms"`
}

// record is everything one run measured; --record appends it as one
// JSON line, and --compare and --summarize read such lines.
type record struct {
	Workload  string    `json:"workload"`
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	Env       env       `json:"env"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	FirstFail string    `json:"first_failure,omitempty"`
	Metrics   metricSet `json:"metrics"`
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl        = fs.String("workload", "lib-bulk", "workload: lib-bulk, served-mix or served-routed")
		seed      = fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
		seconds   = fs.Int("seconds", 20, "length of the measured window")
		traceOn   = fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
		spans     = fs.String("spans", "", "traced runs: write the recorded spans to this JSON file")
		recordTo  = fs.String("record", "", "append this run's full record (with environment and sample counts) to this JSON-lines file")
		compareM  = fs.Bool("compare", false, "compare two record files given as arguments, with the metrics and bounds of ./BENCHMARK.json")
		summarize = fs.Bool("summarize", false, "print a baseline document (median and quartiles per metric) of the record files given as arguments")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compareM:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two record files")
			return 2
		}
		worse, err := compareFiles(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if worse > 0 {
			return 1
		}
		return 0
	case *summarize:
		if err := summarizeFiles(stdout, fs.Args()); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		return 0
	}
	if *seconds < 1 || *traceOn < 0 || *traceOn > 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: want --seconds ≥ 1, --trace 0 or 1 and no arguments")
		return 2
	}
	cfg := config{workload: *wl, seed: *seed, measure: time.Duration(*seconds) * time.Second,
		warmup: 2 * time.Second, setups: 5, trace: *traceOn == 1, rep: 10 * time.Millisecond}
	rec, sp, err := run(cfg, *recordTo != "")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *spans != "" {
		if err := writeSpans(*spans, sp); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	if *recordTo != "" {
		if err := appendRecord(*recordTo, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	if err := report(stdout, rec); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if !rec.Correct {
		fmt.Fprintf(stderr, "bench: %d of %d operations failed; first: %s\n", rec.Failed, rec.Attempted, rec.FirstFail)
		return 1
	}
	return 0
}

// run executes one benchmark run. Untraced, it sets the workload's
// system up several times (setup_s is their median), warms it up, and
// measures the end-to-end metrics over one window. Traced, it first
// walks the library ladder, then measures the workload in alternating
// untraced and traced quarters (their throughput ratio is the tracing
// overhead), and finally replays every HTTP workload traced to split
// the serving time into layers.
func run(cfg config, withCPU bool) (*record, []span, error) {
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, nil, err
	}
	rec := &record{Workload: wl.name, Seed: cfg.seed, Seconds: cfg.measure.Seconds(), Trace: cfg.trace,
		Metrics: metricSet{}}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		lm, err := ladder(cfg.seed, cfg.rep)
		if err != nil {
			return nil, nil, fmt.Errorf("ladder: %w", err)
		}
		maps.Copy(rec.Metrics, lm)
	}

	refSeed := uint64(daemonSeed)
	if wl.lib {
		refSeed = cfg.seed
	}
	ref, err := references(refSeed, refBytes)
	if err != nil {
		return nil, nil, err
	}
	var (
		tl     tally
		sys    system
		setups []float64
	)
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	for k := 0; k < cfg.setups; k++ {
		if sys != nil {
			sys.close()
		}
		// Each set-up starts from a collected heap, so whether it reuses
		// the previous one's memory or faults in fresh pages does not
		// depend on when the last collection happened to run.
		runtime.GC()
		t0 := time.Now()
		sys, err = wl.setup(cfg.seed, ref, tr, &tl)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	tl.merge(sys.measure(cfg.warmup).tally)

	var spans []span
	if !cfg.trace {
		mem := startMemSampler()
		w := sys.measure(cfg.measure)
		peak, n := mem.finish()
		tl.merge(w.tally)
		endToEnd(rec.Metrics, w, wl.lib, peak, n)
		rec.Metrics.set("setup_s", "s", median(setups), len(setups))
	} else {
		var (
			rate   [2]float64
			ops    int
			opTime time.Duration
		)
		for q := 0; q < 4; q++ {
			tr.on.Store(q%2 == 1)
			w := sys.measure(cfg.measure / 4)
			tr.on.Store(false)
			tl.merge(w.tally)
			rate[q%2] += w.throughput()
			ops, opTime = ops+w.ops, opTime+w.opTime
		}
		rec.Metrics.set("client.op_mean_ms", "ms", ms(opTime)/float64(ops), ops)
		rec.Metrics.set("trace.overhead", "ratio", 1-rate[1]/rate[0], 4)
		spans = tr.take()
	}
	sys.verify(&tl)
	sys.close()
	sys = nil

	if cfg.trace {
		sm, ss, err := servingPass(cfg.seed, max(cfg.measure/6, 2*time.Second), tr, &tl)
		if err != nil {
			return nil, nil, err
		}
		maps.Copy(rec.Metrics, sm)
		spans = append(spans, ss...)
	}
	// The timer probe sleeps, so it runs last: idle vCPUs right before
	// set-up would slow the first wake-ups.
	rec.Env = measureEnv(withCPU)
	rec.Attempted, rec.Failed, rec.FirstFail = tl.attempted, tl.failed, tl.first
	rec.Correct = tl.failed == 0 && tl.attempted > 0
	for name, m := range rec.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, nil, fmt.Errorf("metric %s was not measured", name)
		}
	}
	return rec, spans, nil
}

// measureEnv records the machine; the CPU model (read from
// /proc/cpuinfo) only when asked, since a plain run reads nothing
// outside its checkout.
func measureEnv(withCPU bool) env {
	e := env{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	over := make([]float64, 50)
	for i := range over {
		t0 := time.Now()
		time.Sleep(50 * time.Microsecond)
		over[i] = ms(time.Since(t0) - 50*time.Microsecond)
	}
	e.SleepOvershootMs = median(over)
	if withCPU {
		if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
					e.CPUModel = strings.TrimSpace(v)
					break
				}
			}
		}
	}
	return e
}

// report prints the run for people, then the result object as the last
// line.
func report(w io.Writer, rec *record) error {
	failRatio := 0.0
	if rec.Attempted > 0 {
		failRatio = float64(rec.Failed) / float64(rec.Attempted)
	}
	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%g trace=%t\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(w, "# %s nproc=%d GOMAXPROCS=%d time.Sleep(50µs) overshoot p50=%.3f ms\n",
		rec.Env.GoVersion, rec.Env.NumCPU, rec.Env.GOMAXPROCS, rec.Env.SleepOvershootMs)
	fmt.Fprintf(w, "# attempted=%d failed=%d fail_ratio=%g\n", rec.Attempted, rec.Failed, failRatio)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]valueUnit, len(names))
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "%-42s %14.6g %-6s samples=%d\n", name, m.Value, m.Unit, m.Samples)
		out[name] = valueUnit{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// baseline is the committed summary of a set of runs.
type baseline struct {
	Env     env                           `json:"env"`
	Summary map[string]map[string]summary `json:"summary"` // set key → metric → quartiles
	Runs    []record                      `json:"runs"`
}

// summary is one metric's median and quartiles over the runs of one set.
type summary struct {
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	IQRShare float64 `json:"iqr_share"` // (q3-q1)/|median|
}

// setKey groups runs of one workload and mode.
func setKey(r record) string {
	if r.Trace {
		return r.Workload + " (traced)"
	}
	return r.Workload
}

// loadRecords reads a record file: JSON lines, or a baseline document.
func loadRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc baseline
	if json.Unmarshal(data, &doc) == nil && len(doc.Runs) > 0 {
		return doc.Runs, nil
	}
	var out []record
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return out, nil
}

// summarizeSets gathers each metric's values per set and summarizes them.
func summarizeSets(runs []record) map[string]map[string]summary {
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		k := setKey(r)
		if values[k] == nil {
			values[k] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			values[k][name] = append(values[k][name], m.Value)
			units[name] = m.Unit
		}
	}
	out := map[string]map[string]summary{}
	for k, byName := range values {
		out[k] = map[string]summary{}
		for name, vs := range byName {
			q1, q2, q3 := quartiles(vs)
			out[k][name] = summary{Unit: units[name], N: len(vs), Median: q2, Q1: q1, Q3: q3,
				IQRShare: share(q3-q1, q2)}
		}
	}
	return out
}

func summarizeFiles(w io.Writer, paths []string) error {
	if len(paths) == 0 {
		return errors.New("-summarize wants record files")
	}
	var runs []record
	for _, p := range paths {
		rs, err := loadRecords(p)
		if err != nil {
			return err
		}
		runs = append(runs, rs...)
	}
	doc := baseline{Env: runs[0].Env, Summary: summarizeSets(runs), Runs: runs}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
