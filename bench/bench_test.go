package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

// Run-to-run spread is judged with Python's
// statistics.quantiles(values, n=4); quartiles must agree with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestSelfMsSubtractsInnerTime(t *testing.T) {
	outer := []span{{Start: 0, End: 4 * time.Millisecond}, {Start: 10 * time.Millisecond, End: 12 * time.Millisecond}}
	inner := []span{{Start: 1 * time.Millisecond, End: 3 * time.Millisecond}, {Start: 10 * time.Millisecond, End: 11 * time.Millisecond}}
	if got := selfMs(outer, inner); got != 1.5 {
		t.Errorf("selfMs = %g ms, want (6-3)/2 = 1.5", got)
	}
}

func TestTracerKeepsNewestSpans(t *testing.T) {
	tr := newTracer()
	for i := 0; i < spanCap+10; i++ {
		tr.add(span{Start: time.Duration(i)})
	}
	got := tr.take()
	if len(got) != spanCap || got[0].Start != 10 || got[spanCap-1].Start != spanCap+9 {
		t.Errorf("kept %d spans from %d to %d", len(got), got[0].Start, got[len(got)-1].Start)
	}
	if len(tr.take()) != 0 {
		t.Error("take did not empty the tracer")
	}
}

func TestEndpointOf(t *testing.T) {
	for _, c := range []struct{ method, uri, want string }{
		{"GET", "/bytes?alg=grain&n=32", "bytes"},
		{"GET", "/bytes?n=64&hex=1", "bytes-hex"},
		{"GET", "/stream?alg=grain&n=1024", "stream-pooled"},
		{"GET", "/stream?alg=grain&domain=3&segment=9&off=5&n=4096", "stream-addressed"},
		{"GET", "/stream?lease=abc&off=2048", "stream-lease"},
		{"POST", "/lease?alg=grain&segments=4", "lease-create"},
		{"GET", "/healthz", "other"},
	} {
		if got := endpointOf(httptest.NewRequest(c.method, c.uri, nil)); got != c.want {
			t.Errorf("endpointOf(%s %s) = %s, want %s", c.method, c.uri, got, c.want)
		}
	}
}

func TestCompareFlagsOnlyWorseningBeyondBound(t *testing.T) {
	s := &spec{EndToEnd: []specMetric{
		{Name: "rate", Better: "higher", Bound: 0.10},
		{Name: "lat", Better: "lower", Bound: 0.10},
		{Name: "noisy", Better: "lower", Bound: 0.10},
	}}
	mk := func(rate, lat, noisy float64) record {
		return record{Workload: "w", Metrics: metricSet{
			"rate": {Value: rate}, "lat": {Value: lat}, "noisy": {Value: noisy},
		}}
	}
	a := []record{mk(100, 10, 10), mk(100, 10, 10), mk(100, 10, 10)}
	b := []record{mk(85, 9, 10), mk(85, 9, 20), mk(85, 9, 30)}
	got := map[string]comparison{}
	for _, c := range compareRuns(s, a, b) {
		got[c.metric] = c
	}
	if c := got["rate"]; !c.beyond || math.Abs(c.worse-0.15) > 1e-9 {
		t.Errorf("rate: %+v, want beyond its bound by 15%%", c)
	}
	if c := got["lat"]; c.beyond || c.worse >= 0 {
		t.Errorf("lat got better, yet %+v", c)
	}
	if c := got["noisy"]; !c.unresolved {
		t.Errorf("noisy: %+v, want unresolved (B's spread exceeds the bound)", c)
	}
}

func loadRepoSpec(t *testing.T) *spec {
	t.Helper()
	s, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkNames asserts that got holds exactly the named metrics, each a
// finite number.
func checkNames(t *testing.T, what string, got metricSet, want []specMetric) {
	t.Helper()
	var missing, extra []string
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !ok:
			missing = append(missing, m.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %g", what, m.Name, v.Value)
		case v.Unit != m.Unit:
			t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", what, m.Name, v.Unit, m.Unit)
		}
	}
	for name := range got {
		found := false
		for _, m := range want {
			found = found || m.Name == name
		}
		if !found {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(missing) > 0 || len(extra) > 0 {
		t.Errorf("%s: missing %v, not in BENCHMARK.json %v", what, missing, extra)
	}
}

// TestSmoke runs every workload for about a second, untraced and traced
// (with a short ladder), and checks that each emits exactly the metrics
// BENCHMARK.json names, with no failed operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for seconds")
	}
	s := loadRepoSpec(t)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: wl.name, seed: 7, measure: time.Second, warmup: 200 * time.Millisecond,
				setups: 2, trace: traced, rep: time.Millisecond}
			rec, spans, err := run(cfg, false)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", wl.name, traced, err)
			}
			what := wl.name
			want := s.EndToEnd
			if traced {
				what += " (traced)"
				want = s.PerLayer
				if len(spans) == 0 {
					t.Errorf("%s recorded no spans", what)
				}
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("%s: %d of %d operations failed: %s", what, rec.Failed, rec.Attempted, rec.FirstFail)
			}
			checkNames(t, what, rec.Metrics, want)
		}
	}
}

// TestCLIResultLine runs the command with the flags a benchmark harness
// passes and checks that the last output line is the result object.
func TestCLIResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload for seconds")
	}
	var out, errOut bytes.Buffer
	rec := filepath.Join(t.TempDir(), "runs.jsonl")
	args := []string{"--workload", "lib-bulk", "--seed", "3", "--seconds", "1", "--trace", "0", "--record", rec}
	if code := cli(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	keys := make([]string, 0, len(res))
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Errorf("result keys %v", keys)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for name, m := range metrics {
		if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
			t.Errorf("metric %s is %v, want exactly value and unit", name, m)
		}
	}
	runs, err := loadRecords(rec)
	if err != nil || len(runs) != 1 || runs[0].Workload != "lib-bulk" {
		t.Fatalf("recorded %v, %v", runs, err)
	}
	if worse, err := compareFiles(&out, filepath.Join("..", "BENCHMARK.json"), rec, rec); err != nil || worse != 0 {
		t.Errorf("comparing a record file with itself: %d beyond bound, %v", worse, err)
	}
}
