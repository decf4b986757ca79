// Command loadgen drives the load-generation and soak-test harness
// against a bsrngd serving stack: N concurrent clients issue a mixed,
// deterministic workload — pooled /bytes (binary and hex), pooled and
// addressed /stream, and lease-issue/stream/resume round trips —
// against a daemon loadgen boots in-process or dials with -url. The
// machine-readable outcome (status counts, throughput, per-shape
// latency histograms, verification and digest accounting) lands in
// LOAD.json.
//
// Usage:
//
//	loadgen                                   # boot-mode smoke run
//	loadgen -clients 1000 -requests 20        # the acceptance load
//	loadgen -url http://127.0.0.1:8080 -seed 42 -verify
//	loadgen -chaos 2 -algs trivium            # soak with fault cycles
//	loadgen -cluster 3 -algs grain -verify    # 3 nodes behind the router
//	loadgen -cluster 3 -cluster-chaos 4       # + injected forward faults
//
// Every client's request sequence is a pure function of
// (-workload-seed, client index), so a run is reproducible end to end:
// two runs of the same flags report the same window digest. -verify
// additionally cross-checks every addressed and leased window
// byte-for-byte against the core library (needs the daemon's seed:
// -seed covers both modes).
//
// Exit status: 0 clean run, 1 the load completed but observed failures
// (unexpected non-2xx, verification mismatches, zero-run bodies, or an
// unmet chaos cycle), 2 usage or runtime error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/loadtest"
	"repro/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baseURL  = fs.String("url", "", "dial an existing bsrngd instead of booting one (e.g. http://127.0.0.1:8080)")
		seed     = fs.Uint64("seed", 1, "daemon seed: boots the server with it, and verifies against it in dial mode")
		clients  = fs.Int("clients", 8, "concurrent clients")
		requests = fs.Int("requests", 8, "requests per client")
		mixSpec  = fs.String("mix", "", "bytes:stream:lease workload weights (default 1:1:1)")
		algs     = fs.String("algs", "", "comma-separated algorithms to exercise (default: every served algorithm)")
		bytesN   = fs.Int64("bytes-n", 0, "n per /bytes request (default 4096)")
		streamN  = fs.Int64("stream-n", 0, "n per /stream request (default 8192)")
		leaseSeg = fs.Int("lease-segments", 0, "segments per issued lease (default 4)")
		verify   = fs.Bool("verify", false, "cross-check every addressed and leased window against the library")
		wseed    = fs.Uint64("workload-seed", 1, "deterministic workload seed")
		chaos    = fs.Int("chaos", 0, "drive N degrade/recover fault cycles during the run (boot mode only)")
		chaosSd  = fs.Uint64("chaos-seed", 1, "failpoint trigger seed for -chaos")
		clusterN = fs.Int("cluster", 0, "boot an N-node cluster behind the consistent-hash router and drive the load through it (boot mode only)")
		fchaos   = fs.Int("cluster-chaos", 0, "fire N pulsed forward-failure faults inside the router during a -cluster run")
		fchaosSd = fs.Uint64("cluster-chaos-seed", 1, "failpoint trigger seed for -cluster-chaos")
		inflight = fs.Int("max-inflight", 0, "boot mode: admission-control cap (default off)")
		timeout  = fs.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
		outPath  = fs.String("out", "LOAD.json", "JSON report path (\"-\" = stdout)")
		quiet    = fs.Bool("q", false, "suppress progress on stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := loadtest.Config{
		BaseURL:           *baseURL,
		Clients:           *clients,
		RequestsPerClient: *requests,
		BytesN:            *bytesN,
		StreamN:           *streamN,
		LeaseSegments:     *leaseSeg,
		Verify:            *verify,
		VerifySeed:        *seed,
		WorkloadSeed:      *wseed,
		Timeout:           *timeout,
		Server: server.Config{
			Seed:        *seed,
			MaxInflight: *inflight,
		},
	}
	if !*quiet {
		cfg.Logf = func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	}
	if *mixSpec != "" {
		mix, err := parseMix(*mixSpec)
		if err != nil {
			fmt.Fprintln(stderr, "loadgen:", err)
			return 2
		}
		cfg.Mix = mix
	}
	list, err := core.ParseAlgorithms(*algs)
	if err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 2
	}
	cfg.Algorithms = list
	cfg.Server.Algorithms = list
	if *chaos > 0 {
		cfg.Chaos = &loadtest.ChaosConfig{
			Cycles:        *chaos,
			FailpointSeed: *chaosSd,
		}
	}
	if *clusterN > 0 {
		cc := &loadtest.ClusterConfig{Nodes: *clusterN}
		if *fchaos > 0 {
			cc.ForwardChaos = &loadtest.ForwardChaosConfig{
				Pulses:        *fchaos,
				FailpointSeed: *fchaosSd,
			}
		}
		cfg.Cluster = cc
	} else if *fchaos > 0 {
		fmt.Fprintln(stderr, "loadgen: -cluster-chaos requires -cluster")
		return 2
	}

	res, err := loadtest.Run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 2
	}
	if err := writeResult(res, *outPath, stdout); err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 2
	}

	fail := res.NonOK > 0 || res.VerifyMismatches > 0 || res.ZeroRuns > 0
	if fail {
		fmt.Fprintf(stderr, "loadgen: FAIL — %d non-OK, %d mismatches, %d zero runs (statuses %v)\n",
			res.NonOK, res.VerifyMismatches, res.ZeroRuns, res.Statuses)
		return 1
	}
	fmt.Fprintf(stderr, "loadgen: PASS — %d requests (%d shed with 429), %.1f MB/s, digest %s\n",
		res.Requests, res.Rejected429, res.ThroughputMBps, res.WindowDigest[:16])
	if res.Cluster != nil {
		fmt.Fprintf(stderr, "loadgen: cluster — %d nodes, per-node %v, %.0f retries, %.0f failovers\n",
			res.Cluster.Nodes, res.PerNode, res.Cluster.Retries, res.Cluster.Failovers)
	}
	return 0
}

func writeResult(res *loadtest.Result, path string, stdout io.Writer) error {
	w := stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

func parseMix(s string) (loadtest.Mix, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return loadtest.Mix{}, fmt.Errorf("mix %q: want bytes:stream:lease", s)
	}
	var w [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return loadtest.Mix{}, fmt.Errorf("mix %q: bad weight %q", s, p)
		}
		w[i] = v
	}
	if w[0]+w[1]+w[2] == 0 {
		return loadtest.Mix{}, fmt.Errorf("mix %q: all weights zero", s)
	}
	return loadtest.Mix{Bytes: w[0], Stream: w[1], Lease: w[2]}, nil
}
