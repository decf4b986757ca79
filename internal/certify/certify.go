// Package certify is the served-path statistical certification harness:
// it proves that the bytes bsrngd actually serves — through the pooled
// sources and their live health checks — are (a) byte-identical to the
// deterministic library stream and (b) statistically sound under the
// full SP 800-22 battery plus the continuous health checks, for every
// served algorithm: one cell each.
//
// Two modes share one code path: boot mode constructs one real
// internal/server instance and talks to it over a real TCP loopback
// listener (nothing is stubbed — the HTTP handler, content
// negotiation and the pooled source all run exactly as in production);
// dial mode (Config.BaseURL) points the same puller at an
// already-running bsrngd, producing one cell per algorithm.
//
// The output is a machine-readable Report (CERTIFY.json) carrying
// per-test uniformity/proportion statistics and a per-cell verdict; the
// nightly certify workflow archives it, and cmd/certify exits non-zero
// unless every cell passes.
package certify

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/server"
	"repro/internal/sp80022"
)

// Config tunes a certification run; zero values select the documented
// defaults.
type Config struct {
	// BaseURL, when non-empty, dials an existing bsrngd (e.g.
	// "http://127.0.0.1:8080") instead of booting a server.
	BaseURL string
	// Seed is the deterministic base seed; it must match the served
	// instance's -seed in dial mode for the cross-check to hold.
	Seed uint64
	// Algorithms is the cells, one per algorithm (default
	// core.ServedAlgorithms).
	Algorithms []core.Algorithm
	// Segments is the number of core.SegmentBytes segments pulled per
	// cell (default 64: 128 KiB, 2^20 bits).
	Segments int
	// SegmentsPerRequest bounds one GET /bytes (default 16), so a cell
	// exercises several requests, not one big read.
	SegmentsPerRequest int
	// Streams is the number of battery bit streams per cell (default 16).
	Streams int
	// SkipExpensive skips the slow linear-complexity test.
	SkipExpensive bool
	// SkipCrossCheck disables the byte-for-byte library comparison —
	// for dial mode against a server whose seed is unknown, or that has
	// served pooled bytes before. The battery and health checks still
	// run.
	SkipCrossCheck bool
	// Timeout bounds each HTTP request (default 30s).
	Timeout time.Duration
	// Logf, when non-nil, receives one progress line per cell.
	Logf func(format string, args ...any)
}

func (c *Config) defaults() {
	if c.Algorithms == nil {
		c.Algorithms = core.ServedAlgorithms
	}
	if c.Segments == 0 {
		c.Segments = 64
	}
	if c.SegmentsPerRequest == 0 {
		c.SegmentsPerRequest = 16
	}
	if c.Streams == 0 {
		c.Streams = 16
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Run executes the certification matrix and returns the report. A
// non-nil error means the run itself could not proceed (bad config,
// server boot failure); per-cell failures are recorded in the report,
// not returned.
func Run(cfg Config) (*Report, error) {
	cfg.defaults()
	if len(cfg.Algorithms) == 0 {
		return nil, fmt.Errorf("certify: no algorithms configured")
	}
	if cfg.Segments < 1 || cfg.Streams < 1 || cfg.SegmentsPerRequest < 1 {
		return nil, fmt.Errorf("certify: segments, streams and segments-per-request must be ≥ 1")
	}
	bitsPerStream := cfg.Segments * core.SegmentBytes * 8 / cfg.Streams
	if bitsPerStream < 128 {
		return nil, fmt.Errorf("certify: %d segments over %d streams is %d bits per stream, need ≥ 128",
			cfg.Segments, cfg.Streams, bitsPerStream)
	}
	rep := &Report{
		Seed:          cfg.Seed,
		Segments:      cfg.Segments,
		Streams:       cfg.Streams,
		BitsPerStream: bitsPerStream,
		Pass:          true,
	}
	// A boot cell records the datapath width, 64; a dial cell records 0,
	// the remote width not being known here.
	baseURL, lanes := cfg.BaseURL, 0
	rep.Mode = "dial"
	if baseURL == "" {
		booted, shutdown, err := bootServer(&cfg)
		if err != nil {
			return nil, fmt.Errorf("certify: booting server: %w", err)
		}
		defer shutdown()
		rep.Mode, baseURL, lanes = "boot", booted, core.DefaultLanes
	}
	for _, alg := range cfg.Algorithms {
		rep.add(certifyCell(&cfg, baseURL, alg, lanes))
	}
	return rep, nil
}

// bootServer stands up a real bsrngd serving stack on a loopback TCP
// listener. Its pooled sources serve the canonical domain-1 byte
// sequence the cross-check mirrors.
func bootServer(cfg *Config) (baseURL string, shutdown func(), err error) {
	srv, err := server.New(server.Config{Seed: cfg.Seed, Algorithms: cfg.Algorithms})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	shutdown = func() {
		ctx, cancel := context.WithTimeout(context.Background(), cfg.Timeout)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// certifyCell pulls one cell's served bytes and runs every check.
// lanes 0 marks a dial-mode cell of unknown server-side width.
//
// The battery follows SP 800-22 §4.2's guidance for marginal results:
// a proportion or uniformity failure on the first sample is re-examined
// on a second, independent sample — the next cfg.Segments segments of
// the same served stream — and only a test that fails both rounds fails
// the cell. The cross-check and health checks are never retried: a
// byte-level mismatch is deterministic evidence, not sampling noise.
func certifyCell(cfg *Config, baseURL string, alg core.Algorithm, lanes int) Cell {
	cell := Cell{Algorithm: alg.String(), Lanes: lanes, Segments: cfg.Segments}
	cfg.logf("certify: %s lanes=%d: pulling %d segments", alg, lanes, cfg.Segments)
	served, err := pullSegments(cfg, baseURL, alg)
	if err != nil {
		cell.Error = err.Error()
		return cell
	}
	cell.Bytes = len(served)

	if !cfg.SkipCrossCheck {
		cell.CrossChecked = true
		cell.CrossCheckOK, err = crossCheck(cfg, alg, served)
		if err != nil {
			cell.Error = err.Error()
			return cell
		}
	}

	// Re-run the continuous health tests offline on the served bytes: the
	// server ran them at production time; a healthy engine must also pass
	// them on the delivered copy.
	checker := health.NewChecker(health.Config{})
	for off := 0; off+core.SegmentBytes <= len(served); off += core.SegmentBytes {
		if err := checker.Check(served[off : off+core.SegmentBytes]); err != nil {
			cell.HealthFailures++
		}
	}

	cell.Tests, cell.Skipped = runBattery(cfg, served)
	if !allPass(cell.Tests) && (!cell.CrossChecked || cell.CrossCheckOK) {
		cfg.logf("certify: %s lanes=%d: marginal battery result, re-testing on a fresh sample", alg, lanes)
		if retried, err := retryBattery(cfg, baseURL, alg, cell.Tests); err != nil {
			cell.Error = err.Error()
			return cell
		} else {
			cell.Tests = retried
			cell.Retried = true
		}
	}
	cell.Pass = cell.Error == "" &&
		(!cell.CrossChecked || cell.CrossCheckOK) &&
		cell.HealthFailures == 0 &&
		allPass(cell.Tests)
	cfg.logf("certify: %s lanes=%d: pass=%v (%d tests, %d skipped, %d health failures)",
		alg, lanes, cell.Pass, len(cell.Tests), len(cell.Skipped), cell.HealthFailures)
	return cell
}

// retryBattery pulls the next cfg.Segments segments of the same served
// stream and re-runs the battery, replacing each first-round failure
// with its second-opinion result (marked Retried). First-round passes
// stand — the retry exists to distinguish sampling noise from systematic
// bias on the tests that flagged, exactly as §4.2 prescribes.
func retryBattery(cfg *Config, baseURL string, alg core.Algorithm, first []TestResult) ([]TestResult, error) {
	served, err := pullSegments(cfg, baseURL, alg)
	if err != nil {
		return nil, fmt.Errorf("re-test pull: %w", err)
	}
	second, _ := runBattery(cfg, served)
	byName := make(map[string]TestResult, len(second))
	for _, tr := range second {
		byName[tr.Name] = tr
	}
	out := make([]TestResult, len(first))
	for i, tr := range first {
		out[i] = tr
		if !tr.Pass {
			if again, ok := byName[tr.Name]; ok {
				again.Retried = true
				out[i] = again
			}
		}
	}
	return out, nil
}

func allPass(tests []TestResult) bool {
	if len(tests) == 0 {
		return false
	}
	for _, tr := range tests {
		if !tr.Pass {
			return false
		}
	}
	return true
}

// pullSegments fetches the cell's bytes over GET /bytes in
// SegmentsPerRequest-sized requests, validating transport invariants
// (status, declared and actual length, algorithm echo header) on every
// response. Sequential requests continue the algorithm's pooled stream,
// so the concatenation is a prefix of the canonical stream.
func pullSegments(cfg *Config, baseURL string, alg core.Algorithm) ([]byte, error) {
	client := &http.Client{Timeout: cfg.Timeout}
	out := make([]byte, 0, cfg.Segments*core.SegmentBytes)
	for got := 0; got < cfg.Segments; {
		segs := cfg.SegmentsPerRequest
		if rest := cfg.Segments - got; segs > rest {
			segs = rest
		}
		n := segs * core.SegmentBytes
		u := fmt.Sprintf("%s/bytes?alg=%s&n=%d", baseURL, url.QueryEscape(alg.String()), n)
		resp, err := client.Get(u)
		if err != nil {
			return nil, fmt.Errorf("GET /bytes: %w", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("reading /bytes body: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET /bytes: status %d: %s", resp.StatusCode, truncate(body))
		}
		if echo := resp.Header.Get("X-Bsrng-Algorithm"); echo != "" && echo != alg.String() {
			return nil, fmt.Errorf("server echoed algorithm %q, want %q", echo, alg)
		}
		if cl := resp.ContentLength; cl >= 0 && cl != int64(n) {
			return nil, fmt.Errorf("Content-Length %d, want %d", cl, n)
		}
		if len(body) != n {
			return nil, fmt.Errorf("short /bytes body: %d bytes, want %d", len(body), n)
		}
		out = append(out, body...)
		got += segs
	}
	return out, nil
}

func truncate(b []byte) string {
	const max = 200
	if len(b) > max {
		b = b[:max]
	}
	return string(b)
}

// crossCheck reproduces the served prefix with the deterministic
// library stream — domain 1 of the seed, what a pooled source serves —
// and compares byte-for-byte. The mirror runs at the default lane width:
// served bytes are lane-width independent, so one mirror certifies every
// lane cell.
func crossCheck(cfg *Config, alg core.Algorithm, served []byte) (bool, error) {
	mirror, err := core.NewSegmentReader(alg, cfg.Seed, 1, core.DefaultLanes, 0)
	if err != nil {
		return false, fmt.Errorf("library mirror: %w", err)
	}
	want := make([]byte, len(served))
	if _, err := io.ReadFull(mirror, want); err != nil {
		return false, fmt.Errorf("library mirror read: %w", err)
	}
	for i := range served {
		if served[i] != want[i] {
			return false, nil
		}
	}
	return true, nil
}

// runBattery splits the served bytes into cfg.Streams bit streams and
// runs the SP 800-22 battery across all cores, summarizing the way the
// paper's Table 3 does. Tests inapplicable to every stream (too few
// bits, too few excursion cycles) are reported as skipped, not failed.
func runBattery(cfg *Config, served []byte) ([]TestResult, []string) {
	bits := sp80022.BitsFromBytes(served)
	per := len(bits) / cfg.Streams
	params := sp80022.Params{SkipExpensiveTests: cfg.SkipExpensive}
	results := make([][]sp80022.Result, cfg.Streams)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for i := 0; i < cfg.Streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = sp80022.RunAll(bits[i*per:(i+1)*per], params)
		}(i)
	}
	wg.Wait()

	var tests []TestResult
	ran := map[string]bool{}
	for _, s := range sp80022.Summarize(results) {
		ran[s.Name] = true
		tests = append(tests, TestResult{
			Name:       s.Name,
			Streams:    s.Streams,
			Uniformity: s.Uniformity,
			Proportion: s.Proportion,
			Pass:       s.Verdict(),
		})
	}
	var skipped []string
	for _, res := range results[:1] {
		for _, r := range res {
			if !ran[r.Name] {
				skipped = append(skipped, r.Name)
			}
		}
	}
	return tests, skipped
}
