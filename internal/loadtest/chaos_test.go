package loadtest

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// The chaos soak cell (run in the CI race job): concurrent clients
// hammer a booted daemon while a seeded failpoint corrupts the served
// algorithm's segments. Every corrupt → skip → degrade → heal → recover
// cycle must complete, no corrupt bytes may reach a client, and a second
// run of the identical Config must pull a byte-identical window
// multiset.
func TestChaosSoak(t *testing.T) {
	if !faultinject.Available() {
		t.Skip("faultinject compiled out (bsrng_nofaultinject)")
	}
	t.Cleanup(faultinject.Reset)

	// One algorithm: lease domains then map to the same engine in every
	// run, keeping the window digest comparable across runs.
	cfg := Config{
		Server:            smallServer(53, core.TRIVIUM),
		Clients:           6,
		RequestsPerClient: 8,
		Verify:            true,
		Chaos: &ChaosConfig{
			FailpointSeed: 11,
			Window:        8,
			Cycles:        2,
			PhaseTimeout:  20 * time.Second,
		},
		Logf: t.Logf,
	}
	run := func() *Result {
		t.Helper()
		faultinject.Reset()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	res := run()
	if res.Chaos == nil {
		t.Fatal("chaos run returned no chaos report")
	}
	if res.Chaos.Cycles != cfg.Chaos.Cycles || res.Chaos.Algorithm != "trivium" {
		t.Errorf("chaos report %+v", res.Chaos)
	}
	// Degrading takes a run of condemned segments in every cycle, and
	// each one was skipped and counted.
	if want := float64(3 * cfg.Chaos.Cycles); res.Chaos.Skipped < want {
		t.Errorf("skipped segments %.0f, want ≥ %.0f", res.Chaos.Skipped, want)
	}
	// No corrupt bytes observed, by two independent detectors.
	if res.VerifyMismatches != 0 {
		t.Errorf("%d verify mismatches during chaos", res.VerifyMismatches)
	}
	if res.ZeroRuns != 0 {
		t.Errorf("%d zero runs — a condemned segment leaked to a client", res.ZeroRuns)
	}
	if res.VerifiedWindows == 0 {
		t.Error("chaos run verified no windows")
	}
	// 503s while the source has no healthy segment are the intended shed
	// path; anything else is a failure.
	if res.NonOK != 0 {
		t.Errorf("non-OK %d (statuses %v)", res.NonOK, res.Statuses)
	}

	res2 := run()
	if res2.WindowDigest != res.WindowDigest {
		t.Errorf("chaos runs diverge: digest %s vs %s", res.WindowDigest, res2.WindowDigest)
	}
}
