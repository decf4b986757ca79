package xorgens

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bitslice"
)

// Differential lockdown at every public lane width. Every width runs the
// 64-lane engine, so wN keys N independent instances and serves them as
// ⌈N/64⌉ passes of one engine, rekeyed by Reseed between passes as a
// core stream rekeys between segment passes. In the last pass the lanes
// past N carry filler material and go unchecked, as in a gathered pass.
// Every checked lane must reproduce its scalar reference keystream
// byte-for-byte for three output words. Each width runs two rounds of material, so
// even w64 checks a Reseed.
func TestDifferentialAllWidths(t *testing.T) {
	for _, w := range []struct {
		name      string
		instances int
	}{{"w64", 64}, {"w256", 256}, {"w512", 512}, {"w256partial", 70}, {"w512partial", 450}} {
		t.Run(w.name, func(t *testing.T) { diffInstances(t, w.instances) })
	}
}

func diffMaterial(rng *rand.Rand, lanes int) (keys, ivs [][]byte) {
	keys = make([][]byte, lanes)
	ivs = make([][]byte, lanes)
	for l := 0; l < lanes; l++ {
		keys[l] = make([]byte, KeySize)
		ivs[l] = make([]byte, IVSize)
		rng.Read(keys[l])
		rng.Read(ivs[l])
	}
	return keys, ivs
}

func diffInstances(t *testing.T, instances int) {
	rng := rand.New(rand.NewSource(int64(7000 + instances)))
	perRound := (instances + bitslice.W - 1) / bitslice.W
	var sl *Sliced
	for pass := 0; pass < 2*perRound; pass++ {
		keys, ivs := diffMaterial(rng, bitslice.W)
		var err error
		if sl == nil {
			sl, err = NewSlicedVec[bitslice.V64](keys, ivs)
		} else {
			err = sl.Reseed(keys, ivs)
		}
		if err != nil {
			t.Fatal(err)
		}
		const n = 24 // three output words per lane
		bufs := make([][]byte, bitslice.W)
		for l := range bufs {
			bufs[l] = make([]byte, n)
		}
		if err := sl.Keystream(bufs); err != nil {
			t.Fatal(err)
		}
		checked := min(bitslice.W, instances-bitslice.W*(pass%perRound))
		for l := 0; l < checked; l++ {
			ref, err := NewRef(keys[l], ivs[l])
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, n)
			ref.Keystream(want)
			if !bytes.Equal(bufs[l], want) {
				t.Fatalf("pass %d: lane %d diverges from scalar reference\n got %x\nwant %x",
					pass, l, bufs[l], want)
			}
		}
	}
}

// The sliced engine must keep agreeing with the reference across many
// ring rotations (the ring wraps every r words), not just the first
// block — this exercises the circular tap indexing.
func TestDifferentialLongStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7777))
	const lanes = 3
	keys, ivs := diffMaterial(rng, lanes)
	sl, err := NewSlicedVec[bitslice.V64](keys, ivs)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8 * 4 * r // four full ring rotations per lane
	bufs := make([][]byte, lanes)
	for l := range bufs {
		bufs[l] = make([]byte, n)
	}
	if err := sl.Keystream(bufs); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < lanes; l++ {
		ref, _ := NewRef(keys[l], ivs[l])
		want := make([]byte, n)
		ref.Keystream(want)
		if !bytes.Equal(bufs[l], want) {
			t.Fatalf("lane %d diverges over %d ring rotations", l, 4)
		}
	}
}

func TestSlicedRejectsBadConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(7001))
	keys, ivs := diffMaterial(rng, 2)
	if _, err := NewSlicedVec[bitslice.V64](nil, nil); err == nil {
		t.Error("zero lanes accepted")
	}
	if _, err := NewSlicedVec[bitslice.V64](diffKeys(rng, 65, KeySize), diffKeys(rng, 65, IVSize)); err == nil {
		t.Error("65 lanes accepted at width 64")
	}
	if _, err := NewSlicedVec[bitslice.V64](keys, ivs[:1]); err == nil {
		t.Error("key/iv count mismatch accepted")
	}
	if _, err := NewSlicedVec[bitslice.V64](diffKeys(rng, 2, KeySize-1), ivs); err == nil {
		t.Error("short keys accepted")
	}
	sl, err := NewSlicedVec[bitslice.V64](keys, ivs)
	if err != nil {
		t.Fatal(err)
	}
	if sl.Lanes() != 2 {
		t.Errorf("Lanes() = %d, want 2", sl.Lanes())
	}
	if err := sl.Reseed(keys[:1], ivs[:1]); err == nil {
		t.Error("Reseed with wrong lane count accepted")
	}
	if err := sl.Keystream(make([][]byte, 1)); err == nil {
		t.Error("Keystream with wrong buffer count accepted")
	}
	bufs := [][]byte{make([]byte, 8), make([]byte, 16)}
	if err := sl.Keystream(bufs); err == nil {
		t.Error("ragged buffers accepted")
	}
	bufs = [][]byte{make([]byte, 7), make([]byte, 7)}
	if err := sl.Keystream(bufs); err == nil {
		t.Error("unaligned buffers accepted")
	}
}

func diffKeys(rng *rand.Rand, lanes, size int) [][]byte {
	out := make([][]byte, lanes)
	for l := range out {
		out[l] = make([]byte, size)
		rng.Read(out[l])
	}
	return out
}
