package loadtest

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/faultinject"
)

// healthzDoc mirrors the /healthz JSON the chaos driver polls.
type healthzDoc struct {
	Status string `json:"status"`
	Pools  map[string]struct {
		Degraded bool `json:"degraded"`
	} `json:"pools"`
}

// runChaos drives the configured number of corrupt → skip → degrade →
// heal → recover cycles against the first algorithm while the client
// load runs: from a seeded hit on, corrupt every segment the algorithm's
// pooled source checks, so its refills skip them and it degrades; watch
// /healthz degrade; heal the fault; watch the source recover. Returns
// the cycle accounting from the health metrics.
//
// Corrupted segments are condemned by the online health tests and
// skipped, never served: a request whose refill yields no healthy
// segment gets 503 (or, on /stream, ends early), and the window digest
// and zero-run scan stay clean. Recovery needs no traffic: /healthz
// lets a degraded source try a refill.
func (r *runner) runChaos() (*ChaosReport, error) {
	if !faultinject.Available() {
		return nil, fmt.Errorf("loadtest: chaos requested but faultinject is compiled out")
	}
	cc := r.cfg.Chaos
	alg := r.algs[0]
	fp := "server.segment.corrupt." + alg.String()
	defer faultinject.Disarm(fp)

	failures := `bsrngd_health_failures_total{alg="` + alg.String() + `",`
	before := metricSum(r.metricsBody(), failures)

	for cyc := 0; cyc < cc.Cycles; cyc++ {
		// The seeded draw places the cycle's first condemned check; every
		// check from there on is corrupted.
		nth := faultinject.ArmSeeded(fp, cc.FailpointSeed+uint64(cyc), chaosWindow)
		faultinject.ArmRange(fp, nth, math.MaxUint64)
		r.cfg.Logf("loadtest: chaos cycle %d: %s corrupting from hit %d", cyc, fp, nth)

		err := r.waitHealthz(phaseTimeout, r.prime, func(hz healthzDoc) bool {
			return hz.Pools[alg.String()].Degraded
		})
		if err != nil {
			return nil, fmt.Errorf("loadtest: chaos cycle %d: source never degraded: %w", cyc, err)
		}
		r.cfg.Logf("loadtest: chaos cycle %d: %s degraded, healing", cyc, alg)

		faultinject.Disarm(fp)
		err = r.waitHealthz(phaseTimeout, nil, func(hz healthzDoc) bool {
			return hz.Status == "ok" && !hz.Pools[alg.String()].Degraded
		})
		if err != nil {
			return nil, fmt.Errorf("loadtest: chaos cycle %d: source never recovered: %w", cyc, err)
		}
		r.cfg.Logf("loadtest: chaos cycle %d: %s recovered", cyc, alg)
	}

	return &ChaosReport{
		Algorithm: alg.String(),
		Cycles:    cc.Cycles,
		Skipped:   metricSum(r.metricsBody(), failures) - before,
	}, nil
}

// prime issues one small pooled request on the chaos algorithm: the
// pooled source refills, and so checks segments, only when requests
// drain it.
func (r *runner) prime() {
	resp, err := r.client.Get(fmt.Sprintf("%s/bytes?alg=%s&n=%d",
		r.base, r.algs[0], r.cfg.BytesN))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// waitHealthz polls /healthz until ok returns true, running drive (when
// non-nil) each iteration to keep the pooled source refilling.
func (r *runner) waitHealthz(timeout time.Duration, drive func(), ok func(healthzDoc) bool) error {
	deadline := time.Now().Add(timeout)
	for {
		if drive != nil {
			drive()
		}
		resp, err := r.client.Get(r.base + "/healthz")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			var hz healthzDoc
			if rerr == nil && json.Unmarshal(body, &hz) == nil && ok(hz) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// metricsBody fetches the /metrics exposition of the daemon or router
// under test ("" when unreachable).
func (r *runner) metricsBody() string {
	resp, err := r.client.Get(r.base + "/metrics")
	if err != nil {
		return ""
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return ""
	}
	return string(body)
}

// metricSum adds up every sample of a /metrics body whose name and
// labels start with prefix (0 when none).
func metricSum(body, prefix string) float64 {
	var sum float64
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				sum += v
			}
		}
	}
	return sum
}
