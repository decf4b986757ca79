package certify

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
)

// The real thing, scaled down: boot an actual serving stack, pull
// segments over TCP, cross-check and run the battery. One algorithm
// keeps the test inside CI budgets; the full matrix is
// the nightly certify workflow's job.
func TestBootCertifySmoke(t *testing.T) {
	var logged bytes.Buffer
	rep, err := Run(Config{
		Seed:          1,
		Algorithms:    []core.Algorithm{core.TRIVIUM},
		Segments:      8,
		Streams:       4,
		SkipExpensive: true,
		Logf: func(format string, args ...any) {
			logged.WriteString(strings.TrimSpace(format) + "\n")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "boot" || len(rep.Cells) != 1 {
		t.Fatalf("mode %q, %d cells", rep.Mode, len(rep.Cells))
	}
	c := rep.Cells[0]
	if c.Error != "" {
		t.Fatalf("cell error: %s", c.Error)
	}
	if !c.CrossChecked || !c.CrossCheckOK {
		t.Error("served bytes were not cross-checked against the library stream")
	}
	if c.HealthFailures != 0 {
		t.Errorf("%d health failures on served bytes", c.HealthFailures)
	}
	if len(c.Tests) == 0 {
		t.Error("no battery results")
	}
	if c.Bytes != 8*core.SegmentBytes {
		t.Errorf("pulled %d bytes, want %d", c.Bytes, 8*core.SegmentBytes)
	}
	if !c.Pass || !rep.Pass {
		t.Errorf("smoke cell failed: %+v", c)
	}
	if logged.Len() == 0 {
		t.Error("Logf never called")
	}
}

// The new families must certify through the same served path.
func TestBootCertifyNewFamilies(t *testing.T) {
	rep, err := Run(Config{
		Seed:          2,
		Algorithms:    []core.Algorithm{core.XORGENS, core.Chaotic(core.GRAIN)},
		Segments:      8,
		Streams:       4,
		SkipExpensive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		for _, c := range rep.Cells {
			t.Errorf("cell %s: pass=%v error=%q crosscheck=%v", c.Algorithm, c.Pass, c.Error, c.CrossCheckOK)
		}
	}
}

// fakeServer mimics bsrngd's /bytes surface with injectable corruption.
func fakeServer(t *testing.T, corrupt func(w http.ResponseWriter, r *http.Request) bool) *httptest.Server {
	t.Helper()
	streams := map[string]*core.Stream{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if corrupt != nil && corrupt(w, r) {
			return
		}
		algName := r.URL.Query().Get("alg")
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		alg, err := core.ParseAlgorithm(algName)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		st, ok := streams[algName]
		if !ok {
			st, err = core.NewStream(alg, 1, core.StreamConfig{Workers: 1})
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			streams[algName] = st
		}
		buf := make([]byte, n)
		st.Read(buf)
		w.Header().Set("X-Bsrng-Algorithm", alg.String())
		w.Header().Set("Content-Length", strconv.Itoa(n))
		w.Write(buf)
	}))
	t.Cleanup(func() {
		ts.Close()
		for _, st := range streams {
			st.Close()
		}
	})
	return ts
}

func dialConfig(url string) Config {
	return Config{
		BaseURL:       url,
		Seed:          1,
		Algorithms:    []core.Algorithm{core.TRIVIUM},
		Segments:      8,
		Streams:       4,
		SkipExpensive: true,
	}
}

func TestDialModeAgainstFaithfulServer(t *testing.T) {
	ts := fakeServer(t, nil)
	rep, err := Run(dialConfig(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "dial" {
		t.Errorf("mode %q", rep.Mode)
	}
	c := rep.Cells[0]
	if !rep.Pass || !c.CrossCheckOK || c.Lanes != 0 {
		t.Errorf("dial cell: %+v", c)
	}
}

func TestDialModeDetectsCorruptBytes(t *testing.T) {
	first := true
	ts := fakeServer(t, func(w http.ResponseWriter, r *http.Request) bool {
		// Serve faithfully but flip one byte of the first response.
		if !first {
			return false
		}
		first = false
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		st, err := core.NewStream(core.TRIVIUM, 1, core.StreamConfig{Workers: 1})
		if err != nil {
			t.Error(err)
			return true
		}
		defer st.Close()
		buf := make([]byte, n)
		st.Read(buf)
		buf[17] ^= 0x40
		w.Write(buf)
		return true
	})
	rep, err := Run(dialConfig(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cells[0]
	if rep.Pass || c.Pass || !c.CrossChecked || c.CrossCheckOK {
		t.Errorf("corrupted stream not detected: %+v", c)
	}
}

func TestDialModeMalformedResponses(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(w http.ResponseWriter, r *http.Request) bool
		wantErr string
	}{
		{"http error", func(w http.ResponseWriter, r *http.Request) bool {
			http.Error(w, "pool quarantined", http.StatusServiceUnavailable)
			return true
		}, "status 503"},
		{"undeclared short body", func(w http.ResponseWriter, r *http.Request) bool {
			w.Write([]byte("abc"))
			return true
		}, "Content-Length 3"},
		{"truncated body", func(w http.ResponseWriter, r *http.Request) bool {
			// Declare the full length but deliver a prefix: the client
			// sees the connection die mid-body.
			w.Header().Set("Content-Length", r.URL.Query().Get("n"))
			w.Write([]byte("abc"))
			return true
		}, "reading /bytes body"},
		{"wrong algorithm echo", func(w http.ResponseWriter, r *http.Request) bool {
			n, _ := strconv.Atoi(r.URL.Query().Get("n"))
			w.Header().Set("X-Bsrng-Algorithm", "grain")
			w.Write(make([]byte, n))
			return true
		}, `echoed algorithm "grain"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := fakeServer(t, tc.corrupt)
			rep, err := Run(dialConfig(ts.URL))
			if err != nil {
				t.Fatal(err)
			}
			c := rep.Cells[0]
			if rep.Pass || c.Pass {
				t.Errorf("malformed server passed: %+v", c)
			}
			if !strings.Contains(c.Error, tc.wantErr) {
				t.Errorf("cell error %q, want substring %q", c.Error, tc.wantErr)
			}
		})
	}
}

func TestSkipCrossCheck(t *testing.T) {
	// A server with a different seed fails the cross-check unless it is
	// explicitly skipped (dialing an instance whose seed is unknown).
	ts := fakeServer(t, func(w http.ResponseWriter, r *http.Request) bool {
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		st, err := core.NewStream(core.TRIVIUM, 999, core.StreamConfig{Workers: 1})
		if err != nil {
			t.Error(err)
			return true
		}
		defer st.Close()
		buf := make([]byte, n)
		st.Read(buf)
		w.Write(buf)
		return true
	})
	cfg := dialConfig(ts.URL)
	cfg.SkipCrossCheck = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cells[0]
	if c.CrossChecked {
		t.Error("cross-check ran despite SkipCrossCheck")
	}
	if !rep.Pass {
		t.Errorf("statistically sound foreign stream failed: %+v", c)
	}
}

// biasedBody writes n deterministic bytes whose low bit is always set
// (~56% ones): statistically broken in a way that survives re-sampling,
// so the §4.2 retry must run and still fail.
func biasedBody(w http.ResponseWriter, n int, state *uint64) {
	w.Header().Set("X-Bsrng-Algorithm", core.TRIVIUM.String())
	w.Header().Set("Content-Length", strconv.Itoa(n))
	buf := make([]byte, n)
	for i := range buf {
		*state = *state*6364136223846793005 + 1442695040888963407
		buf[i] = byte(*state>>33) | 0x01
	}
	w.Write(buf)
}

func TestRetryBatteryConfirmsSystematicBias(t *testing.T) {
	var state uint64 = 7
	ts := fakeServer(t, func(w http.ResponseWriter, r *http.Request) bool {
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		biasedBody(w, n, &state)
		return true
	})
	cfg := dialConfig(ts.URL)
	cfg.SkipCrossCheck = true // bytes are "trusted", so retry is allowed
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cells[0]
	if c.Error != "" {
		t.Fatalf("unexpected cell error: %s", c.Error)
	}
	if !c.Retried {
		t.Error("biased stream did not trigger a §4.2 re-test")
	}
	if c.Pass || rep.Pass {
		t.Errorf("systematically biased stream passed: %+v", c)
	}
	confirmed := false
	for _, tr := range c.Tests {
		if tr.Retried && !tr.Pass {
			confirmed = true
		}
		if tr.Retried && tr.Pass {
			t.Errorf("retried test %s passed on identically biased re-sample", tr.Name)
		}
	}
	if !confirmed {
		t.Error("no test failed both rounds despite persistent bias")
	}
}

func TestRetryBatteryPullFailure(t *testing.T) {
	// First pull serves biased bytes; the re-test pull gets a 503, which
	// must surface as a cell error, not a pass.
	var state uint64 = 7
	requests := 0
	ts := fakeServer(t, func(w http.ResponseWriter, r *http.Request) bool {
		requests++
		if requests > 1 {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return true
		}
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		biasedBody(w, n, &state)
		return true
	})
	cfg := dialConfig(ts.URL)
	cfg.SkipCrossCheck = true
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cells[0]
	if c.Pass || !strings.Contains(c.Error, "re-test pull") {
		t.Errorf("cell = pass=%v error=%q, want re-test pull failure", c.Pass, c.Error)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{Algorithms: []core.Algorithm{}}); err == nil {
		t.Error("empty algorithm list accepted")
	}
	if _, err := Run(Config{Segments: 1, Streams: 200}); err == nil {
		t.Error("sub-128-bit streams accepted")
	}
}

func TestReportRendering(t *testing.T) {
	rep := &Report{
		Mode: "boot", Seed: 1, Segments: 8, Streams: 4, BitsPerStream: 32768,
		Alpha: 0.01, Pass: false,
		Cells: []Cell{
			{Algorithm: "trivium", Lanes: 64, Segments: 8, Bytes: 16384,
				CrossChecked: true, CrossCheckOK: true, Pass: true,
				Tests:   []TestResult{{Name: "Frequency", Streams: 4, Uniformity: 0.5, Proportion: 1, Pass: true}},
				Skipped: []string{"Universal"}},
			{Algorithm: "grain", Lanes: 64, Segments: 8,
				Error: "GET /bytes: status 503"},
			{Algorithm: "xorgens", Lanes: 64, Segments: 8, Bytes: 16384,
				CrossChecked: true, CrossCheckOK: false,
				Tests: []TestResult{{Name: "Frequency", Streams: 4, Uniformity: 0.0, Proportion: 0.2}}},
		},
	}
	var md bytes.Buffer
	if err := rep.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	out := md.String()
	for _, want := range []string{
		"# Served-path certification: FAIL",
		"| algorithm | 64 lanes |",
		"| trivium | ✅ |",
		"| grain | ❌ |",
		"| xorgens | ❌ |",
		"GET /bytes: status 503",
		"| Frequency | 0.500000 | 1.0000 | Success |",
		"skipped (not applicable at 32768 bits/stream): Universal",
		"library cross-check FAIL",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}

	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("CERTIFY.json does not round-trip: %v", err)
	}
	if len(back.Cells) != 3 || back.Cells[0].Tests[0].Name != "Frequency" {
		t.Errorf("round-tripped report lost data: %+v", back)
	}
}
