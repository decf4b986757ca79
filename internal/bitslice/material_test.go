package bitslice

import (
	"math/rand"
	"testing"
)

// PackBytes must put MSB-first bit 8·off+i of lane L's string at plane
// i, bit L, with zeros past the end of a string and past the last lane.
func TestPackBytesMatchesBitDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, lanes := range []int{1, 7, 63, 64} {
		src := make([][]byte, lanes)
		for l := range src {
			src[l] = make([]byte, rng.Intn(20))
			rng.Read(src[l])
		}
		for _, off := range []int{0, 3, 8, 16} {
			var planes [64]uint64
			PackBytes(&planes, src, off)
			for i := 0; i < 64; i++ {
				for l := 0; l < W; l++ {
					want := uint8(0)
					if b := 8*off + i; l < lanes && b/8 < len(src[l]) {
						want = src[l][b/8] >> uint(7-b%8) & 1
					}
					if got := LaneBit(planes[:], i, l); got != want {
						t.Fatalf("lanes=%d off=%d: plane %d lane %d = %d, want %d", lanes, off, i, l, got, want)
					}
				}
			}
		}
	}
}

func TestShapeErrors(t *testing.T) {
	s := Shape{Pkg: "demo", Key: 4, IV: 2, Block: 8}
	keys, ivs, bufs := zeroStrings(W, 4), zeroStrings(W, 2), zeroStrings(W, 8)
	if err := s.Check(keys, ivs); err != nil {
		t.Fatalf("valid material refused: %v", err)
	}
	if err := s.CheckBuffers(bufs); err != nil {
		t.Fatalf("valid buffers refused: %v", err)
	}
	shortKey := append(zeroStrings(1, 4), zeroStrings(W-1, 3)...)
	longIV := append(zeroStrings(1, 2), zeroStrings(W-1, 3)...)
	noIV := append(zeroStrings(1, 2), make([][]byte, W-1)...)
	ragged := append(zeroStrings(1, 8), make([][]byte, W-1)...)
	for _, c := range []struct {
		name string
		err  error
		want string
	}{
		{"zero lanes", s.Check(nil, nil), "demo: 0 keys for 64 lanes"},
		{"65 lanes", s.CheckKeys(zeroStrings(W+1, 4)), "demo: 65 keys for 64 lanes"},
		{"iv count", s.Check(keys, ivs[:1]), "demo: 1 ivs for 64 lanes"},
		{"short key", s.Check(shortKey, ivs), "demo: lane 1: key must be 4 bytes"},
		{"long iv", s.Check(keys, longIV), "demo: lane 1: iv must be 2 bytes"},
		{"min iv", Shape{Pkg: "demo", Key: 4, IV: 2, MinIV: true}.Check(keys, noIV), "demo: lane 1: iv must be at least 2 bytes"},
		{"buffer count", s.CheckBuffers(bufs[:63]), "demo: 63 buffers for 64 lanes"},
		{"ragged", s.CheckBuffers(ragged), "demo: ragged keystream buffers"},
		{"block", s.CheckBuffers(zeroStrings(W, 4)), "demo: buffer length must be a multiple of 8"},
		{"batch", s.CheckBatch(make([]byte, 511)), "demo: batch buffer of 511 bytes, want at least 512"},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.name, c.err, c.want)
		}
	}
	if err := (Shape{Pkg: "demo", IV: 2, MinIV: true}).Check(zeroStrings(W, 0), zeroStrings(W, 5)); err != nil {
		t.Errorf("longer iv refused under MinIV: %v", err)
	}
	if err := s.CheckBatch(make([]byte, 512)); err != nil {
		t.Errorf("exact batch refused: %v", err)
	}
}

// zeroStrings returns n zero strings of size bytes each.
func zeroStrings(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
	}
	return out
}
