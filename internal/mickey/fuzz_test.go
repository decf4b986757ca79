package mickey

import (
	"bytes"
	"testing"

	"repro/internal/bitslice"
)

// FuzzSlicedMatchesRef holds the 64-lane sliced engine to the scalar
// reference under fuzz-chosen inputs:
//
//   - keystream: per-lane keys and IVs derived from the key and IV seeds,
//     any IV length from 0 to 80 bits (each IV slice only as long as its
//     bits need), any lane count from 1 to 64; every lane's keystream
//     equals Ref's;
//   - one clock: arbitrary R and S states and input plane taken from
//     state, mixing on or off; one clockKG equals Ref.ClockKG in every
//     lane. This reaches register states the keyed schedule rarely
//     produces.
func FuzzSlicedMatchesRef(f *testing.F) {
	f.Add([]byte("0123456789"), []byte("fedcba9876"), []byte("state"), uint8(80), uint16(63), false)
	f.Add([]byte{}, []byte{}, []byte{}, uint8(0), uint16(0), true)
	f.Add(bytes.Repeat([]byte{0xFF}, KeySize), bytes.Repeat([]byte{0xAA}, 10), bytes.Repeat([]byte{0xFF}, 64), uint8(67), uint16(449), true)
	f.Fuzz(func(t *testing.T, keySeed, ivSeed, state []byte, ivBitsRaw uint8, lanesRaw uint16, mixing bool) {
		ivBits := int(ivBitsRaw) % (MaxIVBits + 1)
		lanes := int(lanesRaw)%bitslice.W + 1
		keys := make([][]byte, lanes)
		ivs := make([][]byte, lanes)
		for l := 0; l < lanes; l++ {
			keys[l] = make([]byte, KeySize)
			ivs[l] = make([]byte, (ivBits+7)/8)
			for i := range keys[l] {
				keys[l][i] = byte(l) * 0x3B
				if i < len(keySeed) {
					keys[l][i] ^= keySeed[i]
				}
			}
			for i := range ivs[l] {
				ivs[l][i] = byte(l>>1) ^ 0x5C
				if i < len(ivSeed) {
					ivs[l][i] ^= ivSeed[i]
				}
			}
		}
		sl, err := NewSlicedVec[bitslice.V64](keys, ivs, ivBits)
		if err != nil {
			t.Fatal(err)
		}
		const n = 16
		bufs := make([][]byte, lanes)
		for l := range bufs {
			bufs[l] = make([]byte, n)
		}
		if err := sl.Keystream(bufs); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, n)
		for l := 0; l < lanes; l++ {
			ref, err := NewRef(keys[l], ivs[l], ivBits)
			if err != nil {
				t.Fatal(err)
			}
			ref.Keystream(want)
			if !bytes.Equal(bufs[l], want) {
				t.Fatalf("ivBits %d: lane %d/%d keystream diverges from Ref\n got %x\nwant %x",
					ivBits, l, lanes, bufs[l], want)
			}
		}

		// One clock from arbitrary state: lane l's R, S and input bit are
		// bits 201·l … 201·l+200 of state, read cyclically.
		bit := func(i int) uint8 {
			if len(state) == 0 {
				return 0
			}
			i %= 8 * len(state)
			return state[i>>3] >> uint(i&7) & 1
		}
		refs := make([]Ref, lanes)
		var input uint64
		for l := range refs {
			base := (2*regBits + 1) * l
			for i := 0; i < regBits; i++ {
				refs[l].R[i] = bit(base + i)
				refs[l].S[i] = bit(base + regBits + i)
				bitslice.SetLaneBit(sl.r[:], i, l, refs[l].R[i])
				bitslice.SetLaneBit(sl.s[:], i, l, refs[l].S[i])
			}
			in := bit(base + 2*regBits)
			input |= uint64(in) << uint(l)
			refs[l].ClockKG(mixing, in)
		}
		sl.clockKG(mixing, input)
		for l := range refs {
			for i := 0; i < regBits; i++ {
				if bitslice.LaneBit(sl.r[:], i, l) != refs[l].R[i] || bitslice.LaneBit(sl.s[:], i, l) != refs[l].S[i] {
					t.Fatalf("mixing %v: lane %d/%d: one clock diverges from Ref.ClockKG at bit %d", mixing, l, lanes, i)
				}
			}
		}
	})
}
