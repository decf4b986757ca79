package aes

import (
	"math/rand"
	"testing"

	"repro/internal/bitslice"
)

// packBytePlanes packs one byte per lane into 8 bit planes (plane k =
// bit k of the lane byte).
func packBytePlanes(vals []byte) [8]uint64 {
	var p [8]uint64
	for l, v := range vals {
		for k := 0; k < 8; k++ {
			bitslice.SetLaneBit(p[:], k, l, uint8(v>>uint(k))&1)
		}
	}
	return p
}

// unpackBytePlane reads one lane's byte back out of 8 bit planes.
func unpackBytePlane(p *[8]uint64, lane int) byte {
	var v byte
	for k := 0; k < 8; k++ {
		v |= byte(bitslice.LaneBit(p[:], k, lane)) << uint(k)
	}
	return v
}

// The Boyar–Peralta circuit must reproduce the generated scalar sbox
// table on every one of the 256 inputs, with every lane substituted
// independently, at every public lane width. Every width runs 64-lane
// planes, so wN substitutes N instances in ⌈N/64⌉ passes: instance i
// carries byte i·mult mod 256, an odd multiplier that is a different
// permutation per width, so every value is also checked in lanes other
// than the ones w64 puts it in.
func TestSboxCircuitExhaustive(t *testing.T) {
	for _, w := range []struct {
		name            string
		instances, mult int
	}{{"w64", 256, 1}, {"w256", 256, 167}, {"w512", 512, 77}} {
		t.Run(w.name, func(t *testing.T) {
			for base := 0; base < w.instances; base += bitslice.W {
				vals := make([]byte, bitslice.W)
				for l := range vals {
					vals[l] = byte((base + l) * w.mult)
				}
				p := packBytePlanes(vals)
				p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7] = bpSbox(p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7])
				for l, v := range vals {
					if got := unpackBytePlane(&p, l); got != sbox[v] {
						t.Fatalf("lane %d: circuit(%#02x) = %#02x, want %#02x", l, v, got, sbox[v])
					}
				}
			}
		})
	}
}

// randomState is one random 16-byte block per lane, plus its plane form.
func randomState(rng *rand.Rand) (*[64][16]byte, [128]uint64) {
	var blocks [64][16]byte
	for l := range blocks {
		rng.Read(blocks[l][:])
	}
	return &blocks, packBlocks(&blocks)
}

// subShiftP must equal scalar SubBytes followed by scalar ShiftRows:
// byte b of the output is sbox[input byte shiftSrc[b]] in every lane.
func TestSubShiftRenaming(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	blocks, st := randomState(rng)
	var dst [128]uint64
	subShiftP(&dst, &st)
	out := unpackBlocks(&dst)
	for l, blk := range blocks {
		var want [16]byte
		copy(want[:], blk[:])
		subBytes(&want)
		shiftRows(&want)
		if out[l] != want {
			t.Fatalf("lane %d: subShiftP %x, scalar SB+SR %x", l, out[l], want)
		}
	}
}

// subShiftXorP folds a round key XOR into the S-box load: byte b of the
// output is sbox[input ^ rk at shiftSrc[b]].
func TestSubShiftXorWhitening(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	blocks, st := randomState(rng)
	rkBlocks, rk := randomState(rng)
	var dst [128]uint64
	subShiftXorP(&dst, &st, &rk)
	out := unpackBlocks(&dst)
	for l, blk := range blocks {
		var want [16]byte
		for i := range want {
			want[i] = blk[i] ^ rkBlocks[l][i]
		}
		subBytes(&want)
		shiftRows(&want)
		if out[l] != want {
			t.Fatalf("lane %d: subShiftXorP %x, scalar ARK+SB+SR %x", l, out[l], want)
		}
	}
}

// mixColumnsARKP must equal scalar MixColumns followed by AddRoundKey.
func TestMixColumnsARK(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	blocks, st := randomState(rng)
	rkBlocks, rk := randomState(rng)
	var dst [128]uint64
	mixColumnsARKP(&dst, &st, &rk)
	out := unpackBlocks(&dst)
	for l, blk := range blocks {
		var want [16]byte
		copy(want[:], blk[:])
		mixColumns(&want)
		addRoundKey(&want, &rkBlocks[l])
		if out[l] != want {
			t.Fatalf("lane %d: mixColumnsARKP %x, scalar MC+ARK %x", l, out[l], want)
		}
	}
}
