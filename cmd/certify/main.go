// Command certify runs the served-path statistical certification
// harness: it boots a real bsrngd serving stack per lane width (or
// dials an existing one with -url), pulls segments per (algorithm,
// lanes) cell over GET /bytes, cross-checks them byte-for-byte against
// the deterministic library stream, re-runs the continuous health
// checks, and runs the SP 800-22 battery on the served bytes. The
// machine-readable outcome lands in CERTIFY.json; the exit status is 0
// only if every cell passes.
//
// Usage:
//
//	certify                                  # full boot-mode matrix
//	certify -short                           # one smoke cell (PR CI)
//	certify -url http://127.0.0.1:8080 -seed 42
//	certify -algs trivium,xorgens -lanes 64 -md CERTIFY.md
//
// In dial mode the cross-check mirrors each algorithm's stream from
// its origin, so it only passes against a freshly started daemon whose
// streams have not served other clients yet (requests continue the
// stream; a consumed prefix is indistinguishable from corruption).
// Certifying a live production instance needs -no-crosscheck, which
// keeps the transport, health and battery checks.
//
// Exit status: 0 all cells pass, 1 certification failure, 2 usage or
// runtime error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("certify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baseURL      = fs.String("url", "", "dial an existing bsrngd instead of booting one (e.g. http://127.0.0.1:8080)")
		seed         = fs.Uint64("seed", 1, "deterministic base seed (must match the dialed server's -seed)")
		algs         = fs.String("algs", "", "comma-separated algorithms to certify (default: every served algorithm)")
		lanesSpec    = fs.String("lanes", "", "comma-separated lane widths for boot mode, each of 64, 256 or 512 (default: 64); every width runs the 64-lane datapath and serves identical bytes")
		segments     = fs.Int("segments", 0, "segments pulled per cell (default 64)")
		reqSegments  = fs.Int("req-segments", 0, "segments per GET /bytes request (default 16)")
		streams      = fs.Int("streams", 0, "battery bit streams per cell (default 16)")
		fast         = fs.Bool("fast", false, "skip the slow linear-complexity test")
		short        = fs.Bool("short", false, "smoke mode: 8 segments, 4 streams, -fast")
		noCrossCheck = fs.Bool("no-crosscheck", false, "skip the byte-for-byte library comparison (foreign-seed servers)")
		outPath      = fs.String("out", "CERTIFY.json", "JSON report path (\"-\" = stdout)")
		mdPath       = fs.String("md", "", "also render a markdown summary to this path (\"-\" = stdout)")
		timeout      = fs.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
		quiet        = fs.Bool("q", false, "suppress per-cell progress on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := certify.Config{
		BaseURL:            *baseURL,
		Seed:               *seed,
		Segments:           *segments,
		SegmentsPerRequest: *reqSegments,
		Streams:            *streams,
		SkipExpensive:      *fast,
		SkipCrossCheck:     *noCrossCheck,
		Timeout:            *timeout,
	}
	if !*quiet {
		cfg.Logf = func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	}
	list, err := core.ParseAlgorithms(*algs)
	if err != nil {
		fmt.Fprintln(stderr, "certify:", err)
		return 2
	}
	cfg.Algorithms = list
	if *lanesSpec != "" {
		list, err := parseLanes(*lanesSpec)
		if err != nil {
			fmt.Fprintln(stderr, "certify:", err)
			return 2
		}
		cfg.LaneWidths = list
	}
	if *short {
		// A PR-sized smoke cell: the full matrix is the nightly job.
		if cfg.Segments == 0 {
			cfg.Segments = 8
		}
		if cfg.Streams == 0 {
			cfg.Streams = 4
		}
		cfg.SkipExpensive = true
	}

	rep, err := certify.Run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "certify:", err)
		return 2
	}
	if err := writeReport(rep, *outPath, stdout, (*certify.Report).WriteJSON); err != nil {
		fmt.Fprintln(stderr, "certify:", err)
		return 2
	}
	if *mdPath != "" {
		if err := writeReport(rep, *mdPath, stdout, (*certify.Report).WriteMarkdown); err != nil {
			fmt.Fprintln(stderr, "certify:", err)
			return 2
		}
	}
	if !rep.Pass {
		fmt.Fprintln(stderr, "certify: FAIL — one or more cells failed certification")
		return 1
	}
	fmt.Fprintf(stderr, "certify: PASS — %d cells\n", len(rep.Cells))
	return 0
}

func writeReport(rep *certify.Report, path string, stdout io.Writer, render func(*certify.Report, io.Writer) error) error {
	if path == "-" {
		return render(rep, stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(rep, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func parseLanes(s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("bad lane width %q", tok)
		}
		if err := core.ValidateLanes(n); err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
