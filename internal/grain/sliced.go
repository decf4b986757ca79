package grain

import "repro/internal/bitslice"

// window is the number of clocks in one block. Instead of shifting 160
// planes every clock (the naive cost the paper's §4.3 eliminates), the
// bitsliced engine appends each new state plane after the live window
// and slides the window origin; one bulk copy per block rebases the
// buffers.
const window = 64

// Sliced is the bitsliced Grain v1 engine: one uint64 plane per register
// bit, 64 independent cipher instances per plane, all register shifts
// replaced by index renaming. The engine clocks only in blocks, and
// between blocks both append logs sit at origin 0: state bit i of the
// current clock is s[i] and b[i].
type Sliced struct {
	s, b [regBits + window]uint64 // LFSR and NFSR append logs
	tile bitslice.Tile            // lane store staging, reused by every fill
}

// shape is the engine's material and buffer contract.
var shape = bitslice.Shape{Pkg: "grain", Key: KeySize, IV: IVSize, Block: 8}

// NewSlicedVec builds the 64-lane engine; keys[L]/ivs[L] belong to lane
// L. Initialization runs the spec's 160 feedback clocks for all lanes in
// lock-step. The type parameter admits only bitslice.V64; it stays
// because the bench/ module instantiates NewSlicedVec[bitslice.V64].
func NewSlicedVec[_ bitslice.V64](keys, ivs [][]byte) (*Sliced, error) {
	if err := shape.Check(keys, ivs); err != nil {
		return nil, err
	}
	g := &Sliced{}
	g.Rekey(keys, ivs)
	return g, nil
}

// Reseed checks fresh per-lane key/IV material and rekeys every lane
// with it.
func (g *Sliced) Reseed(keys, ivs [][]byte) error {
	if err := shape.Check(keys, ivs); err != nil {
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
	// Load the registers 64 bits per lane at a time. Every plane in
	// [0, regBits) is overwritten and the window tail is fully rewritten
	// before it is ever read, so no zeroing pass is needed.
	var hi [64]uint64
	bitslice.PackBytes((*[64]uint64)(g.b[:64]), keys, 0) // NFSR bits 0..63
	bitslice.PackBytes(&hi, keys, 8)
	copy(g.b[64:regBits], hi[:])                        // NFSR bits 64..79
	bitslice.PackBytes((*[64]uint64)(g.s[:64]), ivs, 0) // LFSR bits 0..63 = IV
	for i := 64; i < regBits; i++ {
		g.s[i] = ^uint64(0) // LFSR bits 64..79 are all-ones
	}
	for n := initClocks; n > 0; n -= window {
		g.initBlock(min(n, window))
	}
}

// initBlock runs n ≤ window initialization clocks, the output z XORed
// into both new planes, and rebases both logs by n. It is the block
// loop of keystreamBlock with z fed back and no output kept.
func (g *Sliced) initBlock(n int) {
	sb, bb := &g.s, &g.b
	for t := range n {
		s := sb[t:][:regBits+1]
		b := bb[t:][:regBits+1]
		x0, x1, x2, x3, x4 := s[3], s[25], s[46], s[64], b[63]
		z := x1 ^ x4 ^ x0&x3 ^ x2&x3 ^ x3&x4 ^
			x0&x1&x2 ^ x0&x2&x3 ^ x0&x2&x4 ^ x1&x2&x4 ^ x2&x3&x4 ^
			b[1] ^ b[2] ^ b[4] ^ b[10] ^ b[31] ^ b[43] ^ b[56]
		lin := b[62] ^ b[60] ^ b[52] ^ b[45] ^ b[37] ^ b[33] ^
			b[28] ^ b[21] ^ b[14] ^ b[9] ^ b[0]
		nl := x4&b[60] ^ b[37]&b[33] ^ b[15]&b[9] ^
			b[60]&b[52]&b[45] ^ b[33]&b[28]&b[21] ^
			x4&b[45]&b[28]&b[9] ^ b[60]&b[52]&b[37]&b[33] ^
			x4&b[60]&b[21]&b[15] ^
			x4&b[60]&b[52]&b[45]&b[37] ^
			b[33]&b[28]&b[21]&b[15]&b[9] ^
			b[52]&b[45]&b[37]&b[33]&b[28]&b[21]
		s[regBits] = s[62] ^ s[51] ^ s[38] ^ s[23] ^ s[13] ^ s[0] ^ z
		b[regBits] = s[0] ^ lin ^ nl ^ z
	}
	copy(sb[:regBits], sb[n:])
	copy(bb[:regBits], bb[n:])
}

// keystreamBlock runs 64 clocks and transposes so that out[L], written
// little-endian, is 8 keystream bytes of lane L with MSB-first bit
// packing (byte-compatible with Ref.Keystream).
//
// It is the block kernel: one loop over the logs as fixed-size arrays,
// so no tap index is bounds checked, and one rebase after the block.
// Output filter and register feedback are fused into one pass: in
// keystream mode the feedback planes are zero.
func (g *Sliced) keystreamBlock(out *[64]uint64) {
	sb, bb := &g.s, &g.b
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
	copy(sb[:regBits], sb[window:])
	copy(bb[:regBits], bb[window:])
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

// Keystream fills one buffer per lane with that lane's keystream bytes:
// 64 buffers of one length, a multiple of 8.
func (g *Sliced) Keystream(bufs [][]byte) error {
	if err := shape.CheckBuffers(bufs); err != nil {
		return err
	}
	g.Fill((*[bitslice.W][]byte)(bufs))
	return nil
}

// Fill is the per-pass fill: lane L's keystream into bufs[L]. The
// buffers must have one equal length, a multiple of 8; Fill checks
// nothing.
func (g *Sliced) Fill(bufs *[bitslice.W][]byte) { g.tile.Store(bufs[:], g.blocks) }

// blocks is the lane store's block source: the next keystream block
// into each row.
func (g *Sliced) blocks(rows [][64]uint64) {
	for i := range rows {
		g.keystreamBlock(&rows[i])
	}
}
