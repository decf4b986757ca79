package mickey

import "repro/internal/bitslice"

// Sliced is the bitsliced MICKEY 2.0 engine of paper §4.4 (Fig. 9): the
// two 100-bit registers become 200 uint64 planes (plane i, bit L = state
// bit i of lane L), so one clockKG advances 64 independent cipher
// instances and one keystreamBlock emits 64 keystream bits of each.
//
// Everything data-dependent in the spec becomes branch-free here:
//
//   - the per-lane control bits (irregular clocking) turn into full-width
//     AND masks,
//   - the RTAPS/COMP0/COMP1/FB0/FB1 constants are folded into the
//     generated straight-line clock (clockkg_gen.go), so a constant costs
//     an operand form, not a selector plane,
//   - the register shift is realized by ping-pong buffer swapping — the
//     paper's "register reference swapping" — rather than bit shifts.
type Sliced struct {
	// Fixed-size register arrays (not slices): every clockKG index is
	// provably in range, so the hot loop runs without bounds checks.
	r, s   *[regBits]uint64 // current planes
	nr, ns *[regBits]uint64 // scratch planes (swapped in after every clock)
	ivBits int              // IV bits every Rekey loads, fixed by the front doors
	tile   bitslice.Tile    // lane store staging, reused by every fill
}

// shape is the engine's material contract under an IV of ivBits bits:
// an IV string may carry unused trailing bytes.
func shape(ivBits int) bitslice.Shape {
	return bitslice.Shape{Pkg: "mickey", Key: KeySize, IV: (ivBits + 7) / 8, MinIV: true, Block: 8}
}

// check validates front-door material: 64 lanes under an IV of ivBits
// bits.
func check(keys, ivs [][]byte, ivBits int) error {
	if ivBits < 0 || ivBits > MaxIVBits {
		return errIVSize
	}
	return shape(ivBits).Check(keys, ivs)
}

// NewSlicedVec builds the 64-lane engine. keys[L] is lane L's
// 10-byte key; ivs[L] its IV (ivBits bits, MSB-first). All lanes are
// initialized in lock-step, exactly mirroring the reference schedule.
// The type parameter admits only bitslice.V64; it stays because the
// bench/ module instantiates NewSlicedVec[bitslice.V64].
func NewSlicedVec[_ bitslice.V64](keys [][]byte, ivs [][]byte, ivBits int) (*Sliced, error) {
	if err := check(keys, ivs, ivBits); err != nil {
		return nil, err
	}
	m := &Sliced{
		r: new([regBits]uint64), s: new([regBits]uint64),
		nr: new([regBits]uint64), ns: new([regBits]uint64),
		ivBits: ivBits,
	}
	m.Rekey(keys, ivs)
	return m, nil
}

// Reseed checks fresh per-lane key/IV material and rekeys every lane
// with it; ivBits becomes the IV length of this and every later Rekey.
func (m *Sliced) Reseed(keys [][]byte, ivs [][]byte, ivBits int) error {
	if err := check(keys, ivs, ivBits); err != nil {
		return err
	}
	m.ivBits = ivBits
	m.Rekey(keys, ivs)
	return nil
}

// Rekey re-runs the load schedule — IV, key, preclock, the same
// schedule as the reference — with fresh per-lane material, reusing the
// engine's buffers. It checks nothing: the material must have the shape
// the engine's front doors accepted (one key and one IV per lane).
func (m *Sliced) Rekey(keys, ivs [][]byte) {
	clear(m.r[:])
	clear(m.s[:])
	m.load(ivs, m.ivBits)
	m.load(keys, 8*KeySize)
	for i := 0; i < regBits; i++ {
		m.clockKG(true, 0)
	}
}

// load clocks the first n MSB-first bits of every lane's string into
// the registers, packing 64 bits per lane at a time.
func (m *Sliced) load(src [][]byte, n int) {
	var planes [64]uint64
	for i := 0; i < n; i++ {
		if i%64 == 0 {
			bitslice.PackBytes(&planes, src, i/8)
		}
		m.clockKG(true, planes[i%64])
	}
}

// keystreamBlock runs 64 clocks and transposes the result so that
// out[L], written little-endian, is 8 keystream bytes of lane L with the
// cipher's MSB-first bit packing (byte-compatible with Ref.Keystream /
// Packed.Keystream).
func (m *Sliced) keystreamBlock(out *[64]uint64) {
	// Clock t's keystream plane (bit L = lane L's bit, taken before
	// the clock) goes to row t^7, which makes the post-transpose
	// little-endian byte image MSB-first per byte.
	for t := 0; t < 64; t++ {
		out[(t^7)&63] = m.r[0] ^ m.s[0]
		m.clockKG(false, 0)
	}
	bitslice.Transpose64(out)
}

// KeystreamBlockVec is keystreamBlock on V64 planes, kept for the bench/
// module.
func (m *Sliced) KeystreamBlockVec(out *[64]bitslice.V64) {
	var blk [64]uint64
	m.keystreamBlock(&blk)
	for i, w := range blk {
		out[i] = bitslice.V64{w}
	}
}

// Keystream fills one buffer per lane with that lane's keystream bytes:
// 64 buffers of one length, a multiple of 8.
func (m *Sliced) Keystream(bufs [][]byte) error {
	if err := shape(m.ivBits).CheckBuffers(bufs); err != nil {
		return err
	}
	m.Fill((*[bitslice.W][]byte)(bufs))
	return nil
}

// Fill is the per-pass fill: lane L's keystream into bufs[L]. The
// buffers must have one equal length, a multiple of 8; Fill checks
// nothing.
func (m *Sliced) Fill(bufs *[bitslice.W][]byte) { m.tile.Store(bufs[:], m.blocks) }

// blocks is the lane store's block source: the next keystream block
// into each row.
func (m *Sliced) blocks(rows [][64]uint64) {
	for i := range rows {
		m.keystreamBlock(&rows[i])
	}
}
