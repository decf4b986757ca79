package grain

import "repro/internal/bitslice"

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
	tile  bitslice.Tile // lane store staging, reused by every fill
}

// shape is the engine's material and buffer contract.
var shape = bitslice.Shape{Pkg: "grain", Key: KeySize, IV: IVSize, Block: 8}

// NewSlicedVec builds an engine of 1..64 lanes; keys[L]/ivs[L] belong to
// lane L. Initialization runs the spec's 160 feedback clocks for all
// lanes in lock-step. The type parameter admits only bitslice.V64; it
// stays because the bench/ module instantiates NewSlicedVec[bitslice.V64].
func NewSlicedVec[_ bitslice.V64](keys, ivs [][]byte) (*Sliced, error) {
	if err := shape.Check(len(keys), keys, ivs); err != nil {
		return nil, err
	}
	g := &Sliced{
		s:     make([]uint64, regBits+window),
		b:     make([]uint64, regBits+window),
		lanes: len(keys),
	}
	g.Rekey(keys, ivs)
	return g, nil
}

// Reseed checks fresh per-lane key/IV material and rekeys every lane
// with it. The lane count must match the one the engine was built with.
func (g *Sliced) Reseed(keys, ivs [][]byte) error {
	if err := shape.Check(g.lanes, keys, ivs); err != nil {
		return err
	}
	g.Rekey(keys, ivs)
	return nil
}

// Rekey reloads fresh per-lane key/IV material and re-runs the spec's
// initialization clocks, reusing the engine's buffers. It checks
// nothing: the material must have the shape the engine's front doors
// accepted (one KeySize key and one IVSize IV per lane).
func (g *Sliced) Rekey(keys, ivs [][]byte) {
	g.pos = 0
	// Load the registers 64 bits per lane at a time. Every plane in
	// [0, regBits) is overwritten and the window tail is fully rewritten
	// before it is ever read, so no zeroing pass is needed.
	var hi [64]uint64
	bitslice.PackBytes((*[64]uint64)(g.b[:64]), keys, 0) // NFSR bits 0..63
	bitslice.PackBytes(&hi, keys, 8)
	copy(g.b[64:regBits], hi[:])                        // NFSR bits 64..79
	bitslice.PackBytes((*[64]uint64)(g.s[:64]), ivs, 0) // LFSR bits 0..63 = IV
	// LFSR bits 64..79 are all-ones in the active lanes and zero in
	// the inactive ones.
	ones := ^uint64(0) >> (bitslice.W - g.lanes)
	for i := 64; i < regBits; i++ {
		g.s[i] = ones
	}
	for i := 0; i < initClocks; i++ {
		z := g.output()
		g.clock(z, z)
	}
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
		g.rebase()
	}
}

// rebase moves the live window to origin 0: state bit i moves from
// buffer index pos+i to i, so no state bit changes.
func (g *Sliced) rebase() {
	copy(g.s[:regBits], g.s[g.pos:])
	copy(g.b[:regBits], g.b[g.pos:])
	g.pos = 0
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
//
// It is the block kernel: ClockVec's body inlined into one loop over
// the buffers as fixed-size arrays, so no tap index is bounds checked
// and the buffers are rebased once, after the block. A window left off
// origin 0 (by ClockVec calls, or the 160 init clocks, which end at
// pos 32) is rebased first; that moves no state bit, so the block runs
// the same clocks in the same order as 64 ClockVec calls.
func (g *Sliced) keystreamBlock(out *[64]uint64) {
	if g.pos != 0 {
		g.rebase()
	}
	sb := (*[regBits + window]uint64)(g.s)
	bb := (*[regBits + window]uint64)(g.b)
	for t := 0; t < window; t++ {
		s := sb[t:][:regBits+1]
		b := bb[t:][:regBits+1]
		x0, x1, x2, x3, x4 := s[3], s[25], s[46], s[64], b[63]
		h := x1 ^ x4 ^ x0&x3 ^ x2&x3 ^ x3&x4 ^
			x0&x1&x2 ^ x0&x2&x3 ^ x0&x2&x4 ^ x1&x2&x4 ^ x2&x3&x4
		a := b[1] ^ b[2] ^ b[4] ^ b[10] ^ b[31] ^ b[43] ^ b[56]

		lin := b[62] ^ b[60] ^ b[52] ^ b[45] ^ b[37] ^ b[33] ^
			b[28] ^ b[21] ^ b[14] ^ b[9] ^ b[0]
		nl := x4&b[60] ^ b[37]&b[33] ^ b[15]&b[9] ^
			b[60]&b[52]&b[45] ^ b[33]&b[28]&b[21] ^
			x4&b[45]&b[28]&b[9] ^ b[60]&b[52]&b[37]&b[33] ^
			x4&b[60]&b[21]&b[15] ^
			x4&b[60]&b[52]&b[45]&b[37] ^
			b[33]&b[28]&b[21]&b[15]&b[9] ^
			b[52]&b[45]&b[37]&b[33]&b[28]&b[21]
		s[regBits] = s[62] ^ s[51] ^ s[38] ^ s[23] ^ s[13] ^ s[0]
		b[regBits] = s[0] ^ lin ^ nl
		// Clock t's plane goes to row t^7: MSB-first bits per byte.
		out[(t^7)&63] = a ^ h
	}
	g.pos = window
	g.rebase()
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
	if err := shape.CheckBuffers(g.lanes, bufs); err != nil {
		return err
	}
	g.fill(bufs)
	return nil
}

// Fill is the per-pass fill: lane L's keystream into bufs[L], for every
// lane of the engine. The buffers must have one equal length, a multiple
// of 8; Fill checks nothing.
func (g *Sliced) Fill(bufs *[bitslice.W][]byte) { g.fill(bufs[:g.lanes]) }

func (g *Sliced) fill(bufs [][]byte) { g.tile.Store(bufs, g.blocks) }

// blocks is the lane store's block source: the next keystream block
// into each row.
func (g *Sliced) blocks(rows [][64]uint64) {
	for i := range rows {
		g.keystreamBlock(&rows[i])
	}
}
