package xorgens

import (
	"bytes"
	"testing"

	"repro/internal/bitslice"
)

// FuzzSlicedMatchesRef drives the 64-lane sliced engine and the scalar
// reference from identical fuzz-chosen material and demands identical
// keystreams in all 64 lanes — the differential contract under
// adversarial inputs.
func FuzzSlicedMatchesRef(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef"), []byte("fedcba9876543210"), uint8(3))
	f.Add(make([]byte, KeySize), make([]byte, IVSize), uint8(1))
	f.Add(bytes.Repeat([]byte{0xFF}, KeySize), bytes.Repeat([]byte{0xAA}, IVSize), uint8(8))
	f.Fuzz(func(t *testing.T, keySeed, ivSeed []byte, words uint8) {
		n := (int(words%8) + 1) * 8
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
				ivs[l][i] = byte(l) ^ 0x5C
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
		for l := range bufs {
			ref, err := NewRef(keys[l], ivs[l])
			if err != nil {
				t.Fatal(err)
			}
			want := make([]byte, n)
			ref.Keystream(want)
			if !bytes.Equal(bufs[l], want) {
				t.Fatalf("lane %d diverges from scalar reference", l)
			}
		}
	})
}
