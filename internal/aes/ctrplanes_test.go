package aes

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/bitslice"
)

// ctrMaterial builds a 64-lane generator with deterministic key/nonce
// material for the counter-plane tests.
func ctrMaterial(t *testing.T, seed int64) *SlicedCTR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]byte, bitslice.W)
	nonces := make([][]byte, bitslice.W)
	for l := range keys {
		keys[l] = make([]byte, 16)
		nonces[l] = make([]byte, 8)
		rng.Read(keys[l])
		rng.Read(nonces[l])
	}
	g, err := NewSlicedCTRVec[bitslice.V64](keys, nonces)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// setCtrPlanes loads one explicit counter value per lane into the
// generator's counter planes, mirroring the big-endian block encoding
// the packing path used to produce per batch.
func setCtrPlanes(g *SlicedCTR, vals []uint64) {
	var words [64]uint64
	for l, v := range vals {
		// Block bytes 8..15 hold the counter big-endian; the plane
		// layout reads them as a little-endian word.
		words[l] = bits.ReverseBytes64(v)
	}
	g.ctrPl = bitslice.PackWords(&words)
}

// ctrPlaneValues reads every lane's counter value back out of the
// counter planes.
func ctrPlaneValues(g *SlicedCTR) []uint64 {
	out := bitslice.UnpackWords(&g.ctrPl, bitslice.W)
	for l := range out {
		out[l] = bits.ReverseBytes64(out[l])
	}
	return out
}

// widths are the public lane widths. Every width runs the 64-lane
// generator, so wN covers N lanes' counters in ⌈N/64⌉ passes.
var widths = []struct {
	name      string
	instances int
}{{"w64", 64}, {"w256", 256}, {"w512", 512}}

// The in-plane ripple-carry increment must agree with scalar big-endian
// uint64 counter arithmetic across carry chains of every length: byte
// boundaries, 32-bit word boundaries, and the full 2^64 wraparound.
// Instance i starts at start + i mod 4 + i/64, so every pass of a wide
// width moves the carry boundaries to other counter values.
func TestCounterIncrementPlanes(t *testing.T) {
	for _, w := range widths {
		t.Run(w.name, func(t *testing.T) { ctrIncrement(t, w.instances) })
	}
}

func ctrIncrement(t *testing.T, instances int) {
	g := ctrMaterial(t, 61)
	starts := []uint64{
		0, 1, 0xFE, 0xFF, // carry into the second byte
		0xFFFE, 0x1FFFE, // carry across two and three bytes
		0xFFFF_FFFE, 0xFFFF_FFFF, // carry past the 32-bit word boundary
		0x0000_FFFF_FFFF_FFFE,      // six-byte chain
		^uint64(0) - 1, ^uint64(0), // full wraparound to zero
		0x0123_4567_89AB_CDEF,     // arbitrary interior value
		0x8000_0000_0000_0000 - 1, // carry into the top bit
	}
	const steps = 5
	for pass := 0; pass < instances/bitslice.W; pass++ {
		for _, start := range starts {
			want := make([]uint64, bitslice.W)
			for l := range want {
				want[l] = start + uint64(l&3) + uint64(pass)
			}
			setCtrPlanes(g, want)
			for step := 0; step < steps; step++ {
				g.incCounterPlanes()
				for l := range want {
					want[l]++
				}
				got := ctrPlaneValues(g)
				for l := range want {
					if got[l] != want[l] {
						t.Fatalf("pass %d start %#x step %d lane %d: planes hold %#x, scalar counter %#x",
							pass, start, step, l, got[l], want[l])
					}
				}
			}
		}
	}
}

// The counter planes must encode exactly the big-endian block bytes the
// scalar CTR reference feeds its cipher: plane 8i+j of the high half is
// bit j of block byte 8+i.
func TestCounterPlaneLayout(t *testing.T) {
	g := ctrMaterial(t, 62)
	const lanes = bitslice.W
	vals := make([]uint64, lanes)
	rng := rand.New(rand.NewSource(63))
	for l := range vals {
		vals[l] = rng.Uint64()
	}
	setCtrPlanes(g, vals)
	g.incCounterPlanes()
	for l := 0; l < lanes; l++ {
		var blk [8]byte
		binary.BigEndian.PutUint64(blk[:], vals[l]+1)
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				got := bitslice.LaneBit(g.ctrPl[:], 8*i+j, l)
				want := uint8(blk[i]>>uint(j)) & 1
				if got != want {
					t.Fatalf("lane %d block byte %d bit %d: plane %d, big-endian %d", l, 8+i, j, got, want)
				}
			}
		}
	}
}

// Reseed must re-derive the plane state from scalars: counters return
// to zero and the nonce planes match the new nonce material, so the
// post-Reseed stream restarts exactly like a fresh generator. wN reseeds
// the one generator once per pass, ⌈N/64⌉ times in a row.
func TestCounterReseedResetsPlanes(t *testing.T) {
	for _, w := range widths {
		t.Run(w.name, func(t *testing.T) { ctrReseed(t, w.instances) })
	}
}

func ctrReseed(t *testing.T, instances int) {
	g := ctrMaterial(t, 64)
	const lanes = bitslice.W
	dst := make([]byte, lanes*BlockSize)
	rng := rand.New(rand.NewSource(int64(65 + instances)))
	// since counts the batches since the last (re)key: the post-Reseed
	// check below runs one, and the next pass tops it up to seven.
	since := 0
	for pass := 0; pass < instances/bitslice.W; pass++ {
		for ; since < 7; since++ {
			g.NextBatch(dst)
		}
		for _, v := range ctrPlaneValues(g) {
			if v != 7 {
				t.Fatalf("pass %d: counter planes hold %d after 7 batches", pass, v)
			}
		}
		keys := make([][]byte, lanes)
		nonces := make([][]byte, lanes)
		nonceWords := make([]uint64, lanes)
		for l := range keys {
			keys[l] = make([]byte, 16)
			nonces[l] = make([]byte, 8)
			rng.Read(keys[l])
			rng.Read(nonces[l])
			nonceWords[l] = binary.LittleEndian.Uint64(nonces[l])
		}
		if err := g.Reseed(keys, nonces); err != nil {
			t.Fatal(err)
		}
		for l, v := range ctrPlaneValues(g) {
			if v != 0 {
				t.Fatalf("pass %d: lane %d counter %d after Reseed, want 0", pass, l, v)
			}
		}
		gotNonces := bitslice.UnpackWords(&g.noncePl, lanes)
		for l := range gotNonces {
			if gotNonces[l] != nonceWords[l] {
				t.Fatalf("pass %d: lane %d nonce planes %#x, material %#x", pass, l, gotNonces[l], nonceWords[l])
			}
		}
		// And the post-Reseed stream is the fresh scalar stream.
		g.NextBatch(dst)
		for l := 0; l < lanes; l++ {
			ref, err := NewCTR(keys[l], nonces[l])
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, BlockSize)
			ref.Read(want)
			if got := dst[BlockSize*l : BlockSize*(l+1)]; string(got) != string(want) {
				t.Fatalf("pass %d: lane %d post-Reseed stream diverges", pass, l)
			}
		}
		since = 1
	}
}
