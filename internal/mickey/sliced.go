package mickey

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitslice"
)

// Sliced is the bitsliced MICKEY 2.0 engine of paper §4.4 (Fig. 9): the
// two 100-bit registers become 200 uint64 planes (plane i, bit L = state
// bit i of lane L), so one ClockVec advances 64 independent cipher
// instances and emits as many keystream bits.
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
	lanes  int
	words  []uint64 // Reseed scratch: one 64-bit input word per lane
}

// NewSlicedVec builds an engine of 1..64 lanes. keys[L] is lane L's
// 10-byte key; ivs[L] its IV (ivBits bits, MSB-first). All lanes are
// initialized in lock-step, exactly mirroring the reference schedule.
// The type parameter admits only bitslice.V64; it stays because the
// bench/ module instantiates NewSlicedVec[bitslice.V64].
func NewSlicedVec[_ bitslice.V64](keys [][]byte, ivs [][]byte, ivBits int) (*Sliced, error) {
	lanes := len(keys)
	if lanes == 0 || lanes > bitslice.W {
		return nil, fmt.Errorf("mickey: lane count %d out of range [1,%d]", lanes, bitslice.W)
	}
	m := &Sliced{
		r: new([regBits]uint64), s: new([regBits]uint64),
		nr: new([regBits]uint64), ns: new([regBits]uint64),
		lanes: lanes, words: make([]uint64, lanes),
	}
	if err := m.Reseed(keys, ivs, ivBits); err != nil {
		return nil, err
	}
	return m, nil
}

// Reseed re-runs the load schedule with fresh per-lane key/IV material,
// reusing the engine's buffers. The lane count must match the one the
// engine was built with.
func (m *Sliced) Reseed(keys [][]byte, ivs [][]byte, ivBits int) error {
	if len(keys) != m.lanes {
		return fmt.Errorf("mickey: %d keys for %d lanes", len(keys), m.lanes)
	}
	if len(ivs) != m.lanes {
		return fmt.Errorf("mickey: %d keys but %d ivs", len(keys), len(ivs))
	}
	for l := 0; l < m.lanes; l++ {
		if err := checkKeyIV(keys[l], ivs[l], ivBits); err != nil {
			return fmt.Errorf("lane %d: %w", l, err)
		}
	}
	clear(m.r[:])
	clear(m.s[:])

	// Load IV, key, preclock — the same schedule as the reference. Each
	// lane's input string is read as big-endian 64-bit words and one
	// PackWords per word turns bit 63-j of every lane's word into plane
	// j, so the MSB-first input bit i is plane 63-i%64 of word i/64.
	for _, in := range [...]struct {
		src  [][]byte
		bits int
	}{{ivs, ivBits}, {keys, 8 * KeySize}} {
		for w := 0; 64*w < in.bits; w++ {
			for l, p := range in.src {
				m.words[l] = beWord(p, 8*w)
			}
			planes := bitslice.PackWords(m.words)
			for i := 64 * w; i < min(in.bits, 64*w+64); i++ {
				m.clockKG(true, planes[63-i%64])
			}
		}
	}
	for i := 0; i < regBits; i++ {
		m.clockKG(true, 0)
	}
	return nil
}

// beWord reads p[off:off+8] as a big-endian word, zero past the end of p.
func beWord(p []byte, off int) uint64 {
	if len(p) >= off+8 {
		return binary.BigEndian.Uint64(p[off:])
	}
	var w uint64
	for i := 0; i < 8; i++ {
		w <<= 8
		if off+i < len(p) {
			w |= uint64(p[off+i])
		}
	}
	return w
}

// ClockVec emits one keystream plane (bit L = lane L's next keystream
// bit) and advances the generator.
func (m *Sliced) ClockVec() uint64 {
	z := m.r[0] ^ m.s[0]
	m.clockKG(false, 0)
	return z
}

// Lanes returns the number of active lanes.
func (m *Sliced) Lanes() int { return m.lanes }

// keystreamBlock runs 64 clocks and transposes the result so that
// out[L], written little-endian, is 8 keystream bytes of lane L with the
// cipher's MSB-first bit packing (byte-compatible with Ref.Keystream /
// Packed.Keystream).
func (m *Sliced) keystreamBlock(out *[64]uint64) {
	// Placing clock t at index (t&^7)|(7-t&7) makes the post-transpose
	// little-endian byte image MSB-first per byte.
	for t := 0; t < 64; t++ {
		out[(t&^7)|(7-t&7)] = m.ClockVec()
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

// Keystream fills one equal-length buffer per lane with that lane's
// keystream bytes. len(bufs) must equal Lanes() and every buffer length
// must be the same multiple of 8.
func (m *Sliced) Keystream(bufs [][]byte) error {
	if len(bufs) != m.lanes {
		return fmt.Errorf("mickey: %d buffers for %d lanes", len(bufs), m.lanes)
	}
	if len(bufs) == 0 {
		return nil
	}
	n := len(bufs[0])
	for _, b := range bufs {
		if len(b) != n {
			return fmt.Errorf("mickey: ragged keystream buffers")
		}
	}
	if n%8 != 0 {
		return fmt.Errorf("mickey: buffer length must be a multiple of 8")
	}
	var blk [64]uint64
	for off := 0; off < n; off += 8 {
		m.keystreamBlock(&blk)
		for l := 0; l < m.lanes; l++ {
			binary.LittleEndian.PutUint64(bufs[l][off:off+8], blk[l])
		}
	}
	return nil
}
