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
	keys := [][]byte{make([]byte, 4), make([]byte, 4)}
	ivs := [][]byte{make([]byte, 2), make([]byte, 2)}
	if err := s.Check(2, keys, ivs); err != nil {
		t.Fatalf("valid material refused: %v", err)
	}
	for _, c := range []struct {
		name string
		err  error
		want string
	}{
		{"zero lanes", s.Check(0, nil, nil), "demo: lane count 0 out of range [1,64]"},
		{"65 lanes", s.CheckKeys(65, nil), "demo: lane count 65 out of range [1,64]"},
		{"key count", s.Check(2, keys[:1], ivs), "demo: 1 keys for 2 lanes"},
		{"iv count", s.Check(2, keys, ivs[:1]), "demo: 1 ivs for 2 lanes"},
		{"short key", s.Check(2, [][]byte{keys[0], make([]byte, 3)}, ivs), "demo: lane 1: key must be 4 bytes"},
		{"long iv", s.Check(2, keys, [][]byte{ivs[0], make([]byte, 3)}), "demo: lane 1: iv must be 2 bytes"},
		{"min iv", Shape{Pkg: "demo", Key: 4, IV: 2, MinIV: true}.Check(2, keys, [][]byte{ivs[0], nil}), "demo: lane 1: iv must be at least 2 bytes"},
		{"buffer count", s.CheckBuffers(2, [][]byte{nil}), "demo: 1 buffers for 2 lanes"},
		{"ragged", s.CheckBuffers(2, [][]byte{make([]byte, 8), nil}), "demo: ragged keystream buffers"},
		{"block", s.CheckBuffers(2, [][]byte{make([]byte, 4), make([]byte, 4)}), "demo: buffer length must be a multiple of 8"},
		{"batch", s.CheckBatch(2, make([]byte, 15)), "demo: batch buffer of 15 bytes, want at least 16"},
	} {
		if c.err == nil || c.err.Error() != c.want {
			t.Errorf("%s: err = %v, want %q", c.name, c.err, c.want)
		}
	}
	if err := (Shape{Pkg: "demo", IV: 2, MinIV: true}).Check(1, [][]byte{{}}, [][]byte{make([]byte, 5)}); err != nil {
		t.Errorf("longer iv refused under MinIV: %v", err)
	}
	if err := s.CheckBatch(2, make([]byte, 16)); err != nil {
		t.Errorf("exact batch refused: %v", err)
	}
}
