package trivium

import (
	"bytes"
	"testing"

	"repro/internal/bitslice"
)

// FuzzSlicedMatchesRef drives the 64-lane sliced engine and the scalar
// reference from identical fuzz-chosen material: per-lane keys and IVs
// derived from the key and IV seeds, 1 to 8 keystream blocks of 64
// clocks. Every one of the 64 lanes' keystreams must equal Ref's.
func FuzzSlicedMatchesRef(f *testing.F) {
	f.Add([]byte("0123456789"), []byte("fedcba98"), uint8(2))
	f.Add([]byte{}, []byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xFF}, KeySize), bytes.Repeat([]byte{0xAA}, IVSize), uint8(7))
	f.Fuzz(func(t *testing.T, keySeed, ivSeed []byte, blocks uint8) {
		n := (int(blocks%8) + 1) * 8
		keys := make([][]byte, bitslice.W)
		ivs := make([][]byte, bitslice.W)
		for l := range keys {
			keys[l] = make([]byte, KeySize)
			ivs[l] = make([]byte, IVSize)
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
		sl, err := NewSlicedVec[bitslice.V64](keys, ivs)
		if err != nil {
			t.Fatal(err)
		}
		bufs := make([][]byte, bitslice.W)
		for l := range bufs {
			bufs[l] = make([]byte, n)
		}
		if err := sl.Keystream(bufs); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, n)
		for l := range bufs {
			ref, err := NewRef(keys[l], ivs[l])
			if err != nil {
				t.Fatal(err)
			}
			ref.Keystream(want)
			if !bytes.Equal(bufs[l], want) {
				t.Fatalf("lane %d keystream diverges from Ref\n got %x\nwant %x", l, bufs[l], want)
			}
		}
	})
}
