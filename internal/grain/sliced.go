package grain

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/bitslice"
)

// window is the number of clocks run between buffer rebases. Instead of
// shifting 160 planes every clock (the naive cost the paper's §4.3
// eliminates), the bitsliced engine appends each new state plane after the
// live window and slides the window origin; one bulk copy per 64 clocks
// rebases the buffers.
const window = 64

// Sliced is the bitsliced Grain v1 engine: one uint64 plane per register
// bit, 64 independent cipher instances per plane, all register shifts
// replaced by index renaming.
type Sliced struct {
	s, b  []uint64 // plane buffers of length regBits+window
	pos   int      // window origin: state bit i of the current clock is s[pos+i]
	lanes int

	// vals is Reseed's packing scratch: one word per lane, so reloading
	// key/IV material packs 64 bits per lane at a time (a word transpose)
	// instead of setting 144 bits per lane one by one — and allocates
	// nothing on the per-pass rekey path.
	vals []uint64
}

// NewSlicedVec builds an engine of 1..64 lanes; keys[L]/ivs[L] belong to
// lane L. Initialization runs the spec's 160 feedback clocks for all
// lanes in lock-step. The type parameter admits only bitslice.V64; it
// stays because the bench/ module instantiates NewSlicedVec[bitslice.V64].
func NewSlicedVec[_ bitslice.V64](keys, ivs [][]byte) (*Sliced, error) {
	lanes := len(keys)
	if lanes == 0 || lanes > bitslice.W {
		return nil, fmt.Errorf("grain: lane count %d out of range [1,%d]", lanes, bitslice.W)
	}
	g := &Sliced{
		s:     make([]uint64, regBits+window),
		b:     make([]uint64, regBits+window),
		lanes: lanes,
		vals:  make([]uint64, lanes),
	}
	if err := g.Reseed(keys, ivs); err != nil {
		return nil, err
	}
	return g, nil
}

// Reseed reloads fresh per-lane key/IV material and re-runs the spec's
// initialization clocks, reusing the engine's buffers. The lane count
// must match the one the engine was built with.
func (g *Sliced) Reseed(keys, ivs [][]byte) error {
	if len(keys) != g.lanes {
		return fmt.Errorf("grain: %d keys for %d lanes", len(keys), g.lanes)
	}
	if len(ivs) != g.lanes {
		return fmt.Errorf("grain: %d keys but %d ivs", len(keys), len(ivs))
	}
	for l := 0; l < g.lanes; l++ {
		if len(keys[l]) != KeySize {
			return fmt.Errorf("grain: lane %d key must be %d bytes", l, KeySize)
		}
		if len(ivs[l]) != IVSize {
			return fmt.Errorf("grain: lane %d iv must be %d bytes", l, IVSize)
		}
	}
	g.pos = 0
	// Load the registers 64 bits per lane at a time: pack the (MSB-first
	// within bytes) material into one word per lane and word-transpose it
	// into planes. Every plane in [0, regBits) is overwritten and the
	// window tail is fully rewritten before it is ever read, so no
	// zeroing pass is needed.
	g.packPlanes(g.b[:64], keys, 0, 8)        // NFSR bits 0..63
	g.packPlanes(g.b[64:regBits], keys, 8, 2) // NFSR bits 64..79
	g.packPlanes(g.s[:64], ivs, 0, 8)         // LFSR bits 0..63 = IV
	// LFSR bits 64..79 are all-ones in the active lanes; inactive lane
	// bits stay zero, as the bit-by-bit load left them.
	ones := ^uint64(0) >> (bitslice.W - g.lanes)
	for i := 64; i < regBits; i++ {
		g.s[i] = ones
	}
	for i := 0; i < initClocks; i++ {
		z := g.output()
		g.clock(z, z)
	}
	return nil
}

// packPlanes fills dst (up to 64 planes) from byte material: plane i,
// lane L = bit i (MSB-first within bytes) of src[L][off:off+nbytes].
func (g *Sliced) packPlanes(dst []uint64, src [][]byte, off, nbytes int) {
	for l := 0; l < g.lanes; l++ {
		var w uint64
		for j := 0; j < nbytes; j++ {
			w |= uint64(bits.Reverse8(src[l][off+j])) << uint(8*j)
		}
		g.vals[l] = w
	}
	planes := bitslice.PackWords(g.vals)
	copy(dst, planes[:])
}

// Lanes returns the number of active lanes.
func (g *Sliced) Lanes() int { return g.lanes }

func (g *Sliced) output() uint64 {
	// Exact-length reslices let the compiler drop the bounds checks on
	// the constant tap indices below.
	s := g.s[g.pos:][:65]
	b := g.b[g.pos:][:64]
	x0, x1, x2, x3, x4 := s[3], s[25], s[46], s[64], b[63]
	h := x1 ^ x4 ^ x0&x3 ^ x2&x3 ^ x3&x4 ^
		x0&x1&x2 ^ x0&x2&x3 ^ x0&x2&x4 ^ x1&x2&x4 ^ x2&x3&x4
	a := b[1] ^ b[2] ^ b[4] ^ b[10] ^ b[31] ^ b[43] ^ b[56]
	return a ^ h
}

// clock advances all lanes one step, XORing the feedback planes into the
// new planes (used during initialization; zero planes in keystream mode).
func (g *Sliced) clock(fbS, fbB uint64) {
	s := g.s[g.pos:][:63]
	b := g.b[g.pos:][:64]
	ns := s[62] ^ s[51] ^ s[38] ^ s[23] ^ s[13] ^ s[0] ^ fbS
	lin := b[62] ^ b[60] ^ b[52] ^ b[45] ^ b[37] ^ b[33] ^
		b[28] ^ b[21] ^ b[14] ^ b[9] ^ b[0]
	nl := b[63]&b[60] ^ b[37]&b[33] ^ b[15]&b[9] ^
		b[60]&b[52]&b[45] ^ b[33]&b[28]&b[21] ^
		b[63]&b[45]&b[28]&b[9] ^ b[60]&b[52]&b[37]&b[33] ^
		b[63]&b[60]&b[21]&b[15] ^
		b[63]&b[60]&b[52]&b[45]&b[37] ^
		b[33]&b[28]&b[21]&b[15]&b[9] ^
		b[52]&b[45]&b[37]&b[33]&b[28]&b[21]
	g.push(ns, s[0]^lin^nl^fbB)
}

// push appends the new LFSR and NFSR planes after the live window and
// slides the window origin, rebasing the buffers every window clocks.
func (g *Sliced) push(ns, nb uint64) {
	g.s[g.pos+regBits] = ns
	g.b[g.pos+regBits] = nb
	g.pos++
	if g.pos == window {
		copy(g.s[:regBits], g.s[window:])
		copy(g.b[:regBits], g.b[window:])
		g.pos = 0
	}
}

// ClockVec emits one keystream plane (bit L = lane L's next bit) and
// advances the generator. Output filter and register feedback are fused
// into one pass: in keystream mode the feedback planes are zero, so the
// separate output+clock round trip (two sets of slice headers per clock)
// collapses into one.
func (g *Sliced) ClockVec() uint64 {
	s := g.s[g.pos:][:65]
	b := g.b[g.pos:][:64]
	x0, x1, x2, x3, x4 := s[3], s[25], s[46], s[64], b[63]
	h := x1 ^ x4 ^ x0&x3 ^ x2&x3 ^ x3&x4 ^
		x0&x1&x2 ^ x0&x2&x3 ^ x0&x2&x4 ^ x1&x2&x4 ^ x2&x3&x4
	a := b[1] ^ b[2] ^ b[4] ^ b[10] ^ b[31] ^ b[43] ^ b[56]
	z := a ^ h

	ns := s[62] ^ s[51] ^ s[38] ^ s[23] ^ s[13] ^ s[0]
	lin := b[62] ^ b[60] ^ b[52] ^ b[45] ^ b[37] ^ b[33] ^
		b[28] ^ b[21] ^ b[14] ^ b[9] ^ b[0]
	nl := x4&b[60] ^ b[37]&b[33] ^ b[15]&b[9] ^
		b[60]&b[52]&b[45] ^ b[33]&b[28]&b[21] ^
		x4&b[45]&b[28]&b[9] ^ b[60]&b[52]&b[37]&b[33] ^
		x4&b[60]&b[21]&b[15] ^
		x4&b[60]&b[52]&b[45]&b[37] ^
		b[33]&b[28]&b[21]&b[15]&b[9] ^
		b[52]&b[45]&b[37]&b[33]&b[28]&b[21]
	g.push(ns, s[0]^lin^nl)
	return z
}

// keystreamBlock runs 64 clocks and transposes so that out[L], written
// little-endian, is 8 keystream bytes of lane L with MSB-first bit
// packing (byte-compatible with Ref.Keystream).
func (g *Sliced) keystreamBlock(out *[64]uint64) {
	for t := 0; t < 64; t++ {
		out[(t&^7)|(7-t&7)] = g.ClockVec()
	}
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

// Keystream fills one equal-length buffer per lane with that lane's
// keystream bytes; lengths must be equal multiples of 8.
func (g *Sliced) Keystream(bufs [][]byte) error {
	if len(bufs) != g.lanes {
		return fmt.Errorf("grain: %d buffers for %d lanes", len(bufs), g.lanes)
	}
	if len(bufs) == 0 {
		return nil
	}
	n := len(bufs[0])
	for _, b := range bufs {
		if len(b) != n {
			return fmt.Errorf("grain: ragged keystream buffers")
		}
	}
	if n%8 != 0 {
		return fmt.Errorf("grain: buffer length must be a multiple of 8")
	}
	var blk [64]uint64
	for off := 0; off < n; off += 8 {
		g.keystreamBlock(&blk)
		for l := 0; l < g.lanes; l++ {
			binary.LittleEndian.PutUint64(bufs[l][off:off+8], blk[l])
		}
	}
	return nil
}
