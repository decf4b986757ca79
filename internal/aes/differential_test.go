package aes

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/bitslice"
)

// Differential lockdown at every public lane width. Every width runs the
// 64-lane generator, so wN keys N independent instances and serves them
// as ⌈N/64⌉ passes of one generator, rekeyed by Reseed between passes as
// a core stream rekeys between segment passes. In the last pass the
// lanes past N carry filler material and go unchecked, as in a gathered
// pass. Every checked lane must reproduce its scalar CTR stream
// byte-for-byte for three batches. Each width runs two rounds of
// material, so even w64 checks a Reseed.
func TestDifferentialAllWidths(t *testing.T) {
	for _, w := range []struct {
		name      string
		instances int
	}{{"w64", 64}, {"w256", 256}, {"w512", 512}, {"w256partial", 70}, {"w512partial", 450}} {
		t.Run(w.name, func(t *testing.T) { diffInstances(t, w.instances) })
	}
}

func diffMaterial(rng *rand.Rand, lanes int) (keys, nonces [][]byte) {
	keys = make([][]byte, lanes)
	nonces = make([][]byte, lanes)
	for l := 0; l < lanes; l++ {
		keys[l] = make([]byte, 16)
		nonces[l] = make([]byte, 8)
		rng.Read(keys[l])
		rng.Read(nonces[l])
	}
	return keys, nonces
}

func diffInstances(t *testing.T, instances int) {
	rng := rand.New(rand.NewSource(int64(7000 + instances)))
	perRound := (instances + bitslice.W - 1) / bitslice.W
	var g *SlicedCTR
	for pass := 0; pass < 2*perRound; pass++ {
		keys, nonces := diffMaterial(rng, bitslice.W)
		var err error
		if g == nil {
			g, err = NewSlicedCTRVec[bitslice.V64](keys, nonces)
		} else {
			err = g.Reseed(keys, nonces)
		}
		if err != nil {
			t.Fatal(err)
		}
		const batches = 3
		got := make([]byte, batches*BatchSize)
		for i := 0; i < batches; i++ {
			g.NextBatch(got[i*BatchSize:])
		}
		checked := min(bitslice.W, instances-bitslice.W*(pass%perRound))
		for l := 0; l < checked; l++ {
			ref, err := NewCTR(keys[l], nonces[l])
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, batches*BlockSize)
			ref.Read(want)
			for i := 0; i < batches; i++ {
				gotBlk := got[i*BatchSize+BlockSize*l : i*BatchSize+BlockSize*(l+1)]
				if !bytes.Equal(gotBlk, want[BlockSize*i:BlockSize*(i+1)]) {
					t.Fatalf("pass %d: lane %d batch %d diverges from scalar CTR\n got %x\nwant %x",
						pass, l, i, gotBlk, want[BlockSize*i:BlockSize*(i+1)])
				}
			}
		}
	}
}
