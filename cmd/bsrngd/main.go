// Command bsrngd serves pseudo-random bytes from the bitsliced engines
// over HTTP — the BSRNG generator operated as a bulk entropy service.
//
// Usage:
//
//	bsrngd -addr :8080 -seed 42 -algs mickey,grain,aes-ctr,trivium,xorgens
//	bsrngd -algs 'trivium,chaotic(trivium)'
//	curl 'localhost:8080/bytes?alg=mickey&n=1024' -o random.bin
//	curl 'localhost:8080/bytes?alg=trivium&n=32&hex=1'
//	curl 'localhost:8080/stream?alg=grain&n=1048576' -o stream.bin   # chunked, flushed per chunk
//	curl 'localhost:8080/stream?alg=grain&segment=16&n=4096'         # deterministic addressed window
//	curl -X POST 'localhost:8080/lease?alg=grain&segments=64'        # lease a resumable window
//	curl 'localhost:8080/stream?lease=<id>&off=65536'                # resume mid-lease
//	curl 'localhost:8080/metrics'
//
// The startup log names the address bound, so -addr 127.0.0.1:0 shows
// its port. SIGINT/SIGTERM drains gracefully: the listener closes,
// requests that still reach a handler on an open connection get 503
// (/healthz says "draining"), in-flight requests complete and an open
// /stream ends at its next chunk boundary; -drain-timeout bounds the
// wait.
//
// Pooled requests (/bytes, and /stream without an address) are served
// from one pooled source per algorithm: the domain-1 segment stream of
// -seed. Every pooled segment runs the continuous online health tests
// of internal/health (disable with -no-health); a condemned segment is
// skipped, and three in a row degrade the algorithm. /healthz reports
// the per-algorithm source state as JSON and answers 503 while any
// algorithm is degraded. -max-inflight sheds excess load with 429 +
// Retry-After. The bsrngd_health_* metric family on /metrics covers
// failures and the degraded state.
//
// Cluster mode: -router turns the process into the consistent-hash
// router tier over the N bsrngd nodes named in -ring (a ring.json
// membership file, reloaded on SIGHUP):
//
//	bsrngd -router -ring ring.json -addr :8080
//	kill -HUP $(pidof bsrngd)   # apply an edited ring.json
//
// The router proxies /bytes, /stream and the lease endpoints to the
// node owning the request's (alg, domain, segment-window) address, with
// health-aware failover to any replica — every node sharing the seed
// serves addressed windows byte-identically, so failover never changes
// the bytes. It drains on SIGINT/SIGTERM as a node does: a relayed
// /stream ends after its current upstream read with a clean end of
// body, and the client resumes it with off=. See internal/cluster and
// DESIGN.md §13.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	router := flag.Bool("router", false, "run as the cluster router tier over the ring in -ring instead of serving engines")
	ringPath := flag.String("ring", "", "router mode: ring membership config (JSON), reloaded on SIGHUP")
	seed := flag.Uint64("seed", 1, "deterministic base seed")
	algs := flag.String("algs", "", "comma-separated algorithms to serve, e.g. trivium,chaotic(grain) (default: every base engine plus chaotic(grain))")
	maxBytes := flag.Int64("max-bytes", 0, "per-request byte cap (0 = 16 MiB)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent /bytes + /stream requests; excess get 429 + Retry-After (0 = unlimited)")
	maxLeaseSegments := flag.Int("max-lease-segments", 0, "per-lease window cap in segments (0 = 65536, i.e. 128 MiB)")
	noHealth := flag.Bool("no-health", false, "disable the continuous online health tests and segment skipping")
	flag.Parse()

	if *router {
		if err := runRouter(*addr, *ringPath, *drainTimeout); err != nil {
			fmt.Fprintln(os.Stderr, "bsrngd:", err)
			os.Exit(2)
		}
		return
	}

	algorithms, err := core.ParseAlgorithms(*algs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bsrngd:", err)
		os.Exit(2)
	}
	srv, err := server.New(server.Config{
		Seed:             *seed,
		Algorithms:       algorithms,
		MaxRequestBytes:  *maxBytes,
		MaxInflight:      *maxInflight,
		MaxLeaseSegments: *maxLeaseSegments,
		DisableHealth:    *noHealth,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bsrngd:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("bsrngd: listen: %v", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	log.Printf("bsrngd listening on %s (seed=%d)", ln.Addr(), *seed)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("bsrngd: %v, draining", sig)
	case err := <-errc:
		log.Fatalf("bsrngd: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("bsrngd: drain: %v", err)
	}
	log.Print("bsrngd: drained, bye")
}

// runRouter is the -router main loop: serve the cluster router over
// the ring file, reload the ring on SIGHUP, drain on SIGINT/SIGTERM.
func runRouter(addr, ringPath string, drainTimeout time.Duration) error {
	if ringPath == "" {
		return errors.New("-router requires -ring <ring.json>")
	}
	ring, err := cluster.LoadRing(ringPath)
	if err != nil {
		return err
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Ring: ring, RingPath: ringPath})
	if err != nil {
		return err
	}
	rt.Start()
	defer rt.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- rt.Serve(ln) }()
	log.Printf("bsrngd router listening on %s (%d nodes, ring %s)",
		ln.Addr(), len(ring.Nodes()), ringPath)

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for {
		select {
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				if err := rt.ReloadFromFile(); err != nil {
					log.Printf("bsrngd router: ring reload failed, keeping current ring: %v", err)
				} else {
					log.Printf("bsrngd router: ring reloaded (%d nodes)", len(rt.Ring().Nodes()))
				}
				continue
			}
			log.Printf("bsrngd router: %v, draining", sig)
			ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			defer cancel()
			if err := rt.Shutdown(ctx); err != nil {
				log.Printf("bsrngd router: drain: %v", err)
			}
			log.Print("bsrngd router: drained, bye")
			return nil
		case err := <-errc:
			return fmt.Errorf("serve: %w", err)
		}
	}
}
