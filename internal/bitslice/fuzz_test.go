package bitslice

import (
	"encoding/binary"
	"testing"
)

// Native fuzz targets for the representation-change kernels: layout
// rewrites are exactly where silent keystream corruption sneaks in, so
// the pack/transpose round-trip laws are pinned by fuzzing in
// addition to the unit tests. Seed corpora live under testdata/fuzz; CI
// runs each target briefly with -fuzz.

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

// FuzzPackWordsRoundTrip checks that Transpose64 inverts PackWords for
// every count of lanes that carry a value.
func FuzzPackWordsRoundTrip(f *testing.F) {
	f.Add([]byte{0x01}, uint8(64))
	f.Add([]byte("pack words"), uint8(3))
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x11, 0x22, 0x33}, uint8(33))
	f.Fuzz(func(t *testing.T, data []byte, lanesRaw uint8) {
		lanes := int(lanesRaw)%W + 1
		vals := fuzzWords(data, lanes)
		var in [64]uint64
		copy(in[:], vals)
		back := PackWords(&in)
		Transpose64(&back)
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

// FuzzTranspose64 holds each Transpose64 kernel this machine runs (the
// generated Go form always, the vector kernel when its gate passes) to
// the loop form, transpose64Loop, and checks that it is an involution.
func FuzzTranspose64(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x01, 0x80, 0x7F, 0xFE})
	f.Add([]byte("straight-line transpose"))
	kernels := transpose64Kernels(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var a [64]uint64
		copy(a[:], fuzzWords(data, 64))
		for _, k := range kernels {
			checkTranspose64(t, k.name, k.fn, &a)
		}
	})
}
