package mickey

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/bitslice"
)

// The irregular clocking must actually be irregular: over a window of
// clocks, both control bits take both values, and in the bitsliced engine
// different lanes take different control values in the same clock — the
// very case the paper's branch-free masking exists for.
func TestIrregularClockingIsExercised(t *testing.T) {
	key := make([]byte, KeySize)
	iv := []byte{1, 2, 3, 4}
	ref, err := NewRef(key, iv, 32)
	if err != nil {
		t.Fatal(err)
	}
	var sawR, sawS [2]bool
	for i := 0; i < 200; i++ {
		ctrlR := ref.S[34] ^ ref.R[67]
		ctrlS := ref.S[67] ^ ref.R[33]
		sawR[ctrlR] = true
		sawS[ctrlS] = true
		ref.ClockKG(false, 0)
	}
	if !sawR[0] || !sawR[1] {
		t.Error("control bit R never toggled over 200 clocks")
	}
	if !sawS[0] || !sawS[1] {
		t.Error("control bit S never toggled over 200 clocks")
	}
}

func TestLanesDivergeUnderIrregularClocking(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	keys := make([][]byte, 64)
	ivs := make([][]byte, 64)
	for l := range keys {
		keys[l] = make([]byte, KeySize)
		ivs[l] = make([]byte, 10)
		rng.Read(keys[l])
		rng.Read(ivs[l])
	}
	sl, err := NewSlicedVec[bitslice.V64](keys, ivs, 80)
	if err != nil {
		t.Fatal(err)
	}
	// The per-lane control words must be mixed (neither all-0 nor all-1)
	// most of the time: that is the irregular clocking the paper folds
	// into masks.
	mixed := 0
	const clocks = 100
	for i := 0; i < clocks; i++ {
		ctrlR := sl.s[34] ^ sl.r[67]
		if c := bits.OnesCount64(ctrlR); c > 4 && c < 60 {
			mixed++
		}
		sl.clockKG(false, 0)
	}
	if mixed < clocks/2 {
		t.Errorf("control word mixed in only %d of %d clocks", mixed, clocks)
	}
}
