package grain

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
// byte-for-byte for three 64-clock blocks. Each width runs two rounds of material, so
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
	rng := rand.New(rand.NewSource(int64(5000 + instances)))
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
		const n = 24 // three 64-clock blocks per lane
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
