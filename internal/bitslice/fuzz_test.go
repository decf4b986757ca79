package bitslice

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// Native fuzz targets for the representation-change kernels: layout
// rewrites are exactly where silent keystream corruption sneaks in, so
// the pack/unpack/transpose round-trip laws are pinned by fuzzing in
// addition to the unit tests. Seed corpora live under testdata/fuzz; CI
// runs each target briefly with -fuzz.

// fuzzBits expands fuzz bytes into n bit values.
func fuzzBits(data []byte, n int) []uint8 {
	bits := make([]uint8, n)
	for i := range bits {
		if len(data) == 0 {
			break
		}
		bits[i] = (data[i%len(data)] >> uint(i&7)) & 1
	}
	return bits
}

// fuzzWords expands fuzz bytes into n uint64 words.
func fuzzWords(data []byte, n int) []uint64 {
	words := make([]uint64, n)
	var b [8]byte
	for i := range words {
		for j := 0; j < 8; j++ {
			if len(data) > 0 {
				b[j] = data[(8*i+j)%len(data)] ^ byte(8*i+j)
			}
		}
		words[i] = binary.LittleEndian.Uint64(b[:])
	}
	return words
}

// FuzzPackBitsRoundTrip checks UnpackBits ∘ PackBits = id and that
// PackBits agrees with the single-bit accessors.
func FuzzPackBitsRoundTrip(f *testing.F) {
	f.Add([]byte{0x00}, uint8(1), uint8(1))
	f.Add([]byte{0xFF, 0x0F, 0xA5}, uint8(64), uint8(40))
	f.Add([]byte("pack bits round trip"), uint8(17), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, lanesRaw, nRaw uint8) {
		lanes := int(lanesRaw)%W + 1
		n := int(nRaw)%96 + 1
		bits := make([][]uint8, lanes)
		for l := range bits {
			bits[l] = fuzzBits(append([]byte{byte(l)}, data...), n)
		}
		planes := PackBits(bits)
		if len(planes) != n {
			t.Fatalf("PackBits returned %d planes, want %d", len(planes), n)
		}
		back := UnpackBits(planes, lanes)
		for l := range bits {
			if !bytes.Equal(bits[l], back[l]) {
				t.Fatalf("lane %d: round trip mismatch", l)
			}
			for i := range bits[l] {
				if LaneBit(planes, i, l) != bits[l][i] {
					t.Fatalf("LaneBit(%d, %d) disagrees with input", i, l)
				}
			}
		}
	})
}

// FuzzPackWordsRoundTrip checks UnpackWords ∘ PackWords = id for every
// lane count.
func FuzzPackWordsRoundTrip(f *testing.F) {
	f.Add([]byte{0x01}, uint8(64))
	f.Add([]byte("pack words"), uint8(3))
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x11, 0x22, 0x33}, uint8(33))
	f.Fuzz(func(t *testing.T, data []byte, lanesRaw uint8) {
		lanes := int(lanesRaw)%W + 1
		vals := fuzzWords(data, lanes)
		planes := PackWords(vals)
		back := UnpackWords(&planes, lanes)
		for l := range vals {
			if back[l] != vals[l] {
				t.Fatalf("lane %d: %x != %x", l, back[l], vals[l])
			}
		}
	})
}

// FuzzTransposeVec checks that TransposeVec is an involution and that it
// matches Transpose64.
func FuzzTransposeVec(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x00})
	f.Add([]byte("transpose involution seed"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var a64 [64]uint64
		copy(a64[:], fuzzWords(data, 64))
		var av, orig [64]V64
		for i := range av {
			av[i][0] = a64[i]
		}
		orig = av
		Transpose64(&a64)
		TransposeVec(&av)
		for i := range a64 {
			if a64[i] != av[i][0] {
				t.Fatalf("plane %d: TransposeVec diverges from Transpose64", i)
			}
		}
		TransposeVec(&av)
		if av != orig {
			t.Fatal("TransposeVec is not an involution")
		}
	})
}
