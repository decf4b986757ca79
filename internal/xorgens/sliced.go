package xorgens

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitslice"
)

// Sliced is the bitsliced xorgens engine: one uint64 plane per state
// bit, 64 independent generator instances per plane. The r-word ring
// lives as r×64 planes — plane w·64+n is bit n of ring word w — and the
// word recurrence becomes pure plane XOR circuitry: a left word shift by
// a maps plane n to plane n−a, so t ^= t<<a is 64−a in-place plane XORs
// at a fixed offset, with no per-bit extraction anywhere. One step
// advances every lane by a whole 64-bit output word (64 planes), which
// one Transpose64 turns into 8 little-endian keystream bytes per lane —
// 64× fewer clock iterations per output byte than the bit-serial cipher
// engines need.
type Sliced struct {
	x     []uint64 // r*64 planes: plane w*64+n = bit n of ring word w
	i     int      // ring slot of the most recently produced word
	lanes int

	// Reusable scratch, so keystream generation and Reseed allocate
	// nothing in steady state (the engine rekeys at every segment-pass
	// boundary).
	t, v, blk [64]uint64
	st        []uint64 // lanes × r expanded state words (Reseed)
	vals      []uint64 // one word per lane (Reseed packing)
}

// NewSlicedVec builds an engine of 1..64 lanes; keys[L]/ivs[L] belong to
// lane L. The type parameter admits only bitslice.V64; it stays because
// the bench/ module instantiates NewSlicedVec[bitslice.V64].
func NewSlicedVec[_ bitslice.V64](keys, ivs [][]byte) (*Sliced, error) {
	lanes := len(keys)
	if lanes == 0 || lanes > bitslice.W {
		return nil, fmt.Errorf("xorgens: lane count %d out of range [1,%d]", lanes, bitslice.W)
	}
	g := &Sliced{
		x:     make([]uint64, r*64),
		lanes: lanes,
		st:    make([]uint64, lanes*r),
		vals:  make([]uint64, lanes),
	}
	if err := g.Reseed(keys, ivs); err != nil {
		return nil, err
	}
	return g, nil
}

// Lanes returns the number of active lanes.
func (g *Sliced) Lanes() int { return g.lanes }

// Reseed reloads fresh per-lane key/IV material, reusing the engine's
// buffers. Each lane's state is expanded (and warmed up) in the scalar
// domain — the expansion is per-lane sequential work with no lock-step
// structure to exploit — then packed into planes one ring word at a
// time via the 64×64 word transpose. The lane count must match the one
// the engine was built with.
func (g *Sliced) Reseed(keys, ivs [][]byte) error {
	if len(keys) != g.lanes {
		return fmt.Errorf("xorgens: %d keys for %d lanes", len(keys), g.lanes)
	}
	if len(ivs) != g.lanes {
		return fmt.Errorf("xorgens: %d keys but %d ivs", len(keys), len(ivs))
	}
	for l := 0; l < g.lanes; l++ {
		if err := checkMaterial(keys[l], ivs[l]); err != nil {
			return fmt.Errorf("xorgens: lane %d: %w", l, err)
		}
	}
	for l := 0; l < g.lanes; l++ {
		expand(keys[l], ivs[l], g.st[l*r:(l+1)*r])
	}
	for w := 0; w < r; w++ {
		for l := 0; l < g.lanes; l++ {
			g.vals[l] = g.st[l*r+w]
		}
		blk := bitslice.PackWords(g.vals)
		copy(g.x[w*64:(w+1)*64], blk[:])
	}
	g.i = r - 1
	return nil
}

// clockPlanes advances all lanes one step and leaves the 64 bit planes
// of the new word x_k in out (plane n = bit n of every lane's word).
func (g *Sliced) clockPlanes(out *[64]uint64) {
	i := (g.i + 1) & (r - 1)
	j := (i + (r - s)) & (r - 1)
	tp := g.x[i*64 : i*64+64]
	vp := g.x[j*64 : j*64+64]
	t, v := &g.t, &g.v
	copy(t[:], tp)
	copy(v[:], vp)
	// t ^= t<<a: bit n of the shifted word is bit n−a, so plane n
	// absorbs plane n−a; descending order keeps the source planes
	// pre-shift. Likewise t ^= t>>b ascending.
	for n := 63; n >= a; n-- {
		t[n] ^= t[n-a]
	}
	for n := 0; n < 64-b; n++ {
		t[n] ^= t[n+b]
	}
	for n := 63; n >= c; n-- {
		v[n] ^= v[n-c]
	}
	for n := 0; n < 64-d; n++ {
		v[n] ^= v[n+d]
	}
	for n := 0; n < 64; n++ {
		t[n] ^= v[n]
	}
	copy(tp, t[:])
	copy(out[:], t[:])
	g.i = i
}

// keystreamBlock advances one step and transposes, so out[L], written
// little-endian, is the next 8 keystream bytes of lane L (byte-compatible
// with Ref.Keystream).
func (g *Sliced) keystreamBlock(out *[64]uint64) {
	g.clockPlanes(out)
	bitslice.Transpose64(out)
}

// KeystreamBlockVec is keystreamBlock on V64 planes, kept for the bench/
// module.
func (g *Sliced) KeystreamBlockVec(out *[64]bitslice.V64) {
	var blk [64]uint64
	g.keystreamBlock(&blk)
	for i, w := range blk {
		out[i] = bitslice.V64{w}
	}
}

// Keystream fills one equal-length buffer per lane; lengths must be
// equal multiples of 8.
func (g *Sliced) Keystream(bufs [][]byte) error {
	if len(bufs) != g.lanes {
		return fmt.Errorf("xorgens: %d buffers for %d lanes", len(bufs), g.lanes)
	}
	if len(bufs) == 0 {
		return nil
	}
	n := len(bufs[0])
	for _, b := range bufs {
		if len(b) != n {
			return fmt.Errorf("xorgens: ragged keystream buffers")
		}
	}
	if n%8 != 0 {
		return fmt.Errorf("xorgens: buffer length must be a multiple of 8")
	}
	for off := 0; off < n; off += 8 {
		g.keystreamBlock(&g.blk)
		for l := 0; l < g.lanes; l++ {
			binary.LittleEndian.PutUint64(bufs[l][off:off+8], g.blk[l])
		}
	}
	return nil
}
