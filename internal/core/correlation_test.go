package core

import (
	"testing"

	"repro/internal/bitslice"
	"repro/internal/grain"
	"repro/internal/mickey"
	"repro/internal/sp80022"
	"repro/internal/trivium"
)

// Paper §4.3: "the shift-registers should be carefully initialized to
// eliminate any statistical correlation between the LFSR state machines."
// Verify that the seed expansion actually decorrelates lanes: adjacent
// and distant lane keystreams of every bitsliced engine must show no
// cross-correlation, and each lane must be autocorrelation-clean.
func TestLaneDecorrelation(t *testing.T) {
	const lanes = 16 // checked lanes of the 64-lane bank
	const bytesPerLane = 8192
	laneStreams := func(alg Algorithm) [][]uint8 {
		t.Helper()
		keys, ivs := segmentMaterial(4242, 0, 0, passLanes, 10, 10)
		bufs := make([][]byte, passLanes)
		for l := range bufs {
			bufs[l] = make([]byte, bytesPerLane)
		}
		switch alg {
		case MICKEY:
			m, err := mickey.NewSlicedVec[bitslice.V64](keys, ivs, 80)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Keystream(bufs); err != nil {
				t.Fatal(err)
			}
		case GRAIN:
			for l := range ivs {
				ivs[l] = ivs[l][:grain.IVSize]
			}
			g, err := grain.NewSlicedVec[bitslice.V64](keys, ivs)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Keystream(bufs); err != nil {
				t.Fatal(err)
			}
		case TRIVIUM:
			tv, err := trivium.NewSlicedVec[bitslice.V64](keys, ivs)
			if err != nil {
				t.Fatal(err)
			}
			if err := tv.Keystream(bufs); err != nil {
				t.Fatal(err)
			}
		}
		out := make([][]uint8, lanes)
		for l := range out {
			out[l] = bitslice.BytesToBits(bufs[l])
		}
		return out
	}

	for _, alg := range []Algorithm{MICKEY, GRAIN, TRIVIUM} {
		streams := laneStreams(alg)
		pairs := [][2]int{{0, 1}, {0, 15}, {7, 8}, {3, 11}}
		for _, pr := range pairs {
			p, err := sp80022.CrossCorrelation(streams[pr[0]], streams[pr[1]])
			if err != nil {
				t.Fatal(err)
			}
			if p < 1e-4 {
				t.Errorf("%v: lanes %d and %d correlated (p=%g)", alg, pr[0], pr[1], p)
			}
		}
		for _, d := range []int{1, 64} {
			p, err := sp80022.Autocorrelation(streams[0], d)
			if err != nil {
				t.Fatal(err)
			}
			if p < 1e-4 {
				t.Errorf("%v: lane 0 autocorrelated at lag %d (p=%g)", alg, d, p)
			}
		}
	}
}
