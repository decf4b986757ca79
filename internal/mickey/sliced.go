package mickey

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitslice"
)

// SlicedVec is the bitsliced MICKEY 2.0 engine of paper §4.4 (Fig. 9),
// generalized over the plane width V: the two 100-bit registers become 200
// V-planes (plane i, lane L = state bit i of lane L), so one ClockVec
// advances 64·K independent cipher instances and emits as many keystream
// bits. V64 planes give the native 64-lane engine; V256/V512 widen the
// datapath to 256/512 lanes — the CPU analogue of widening a GPU warp.
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
//
// Every lane-wise operation applies independently to each of V's K words,
// so the wide engine is K lock-stepped 64-lane engines sharing one control
// flow — one instruction stream, K× the lanes.
type SlicedVec[V bitslice.Vec] struct {
	// Fixed-size register arrays (not slices): every clockKG index is
	// provably in range, so the hot loop runs without bounds checks.
	r, s   *[regBits]V // current planes
	nr, ns *[regBits]V // scratch planes (swapped in after every clock)
	lanes  int
	words  []uint64 // Reseed scratch: one 64-bit input word per lane
}

// Sliced is the native 64-lane engine (the uint64 datapath).
type Sliced = SlicedVec[bitslice.V64]

// NewSliced builds a 64-lane (or fewer) engine. keys[L] is lane L's
// 10-byte key; ivs[L] its IV (ivBits bits, MSB-first). All lanes are
// initialized in lock-step, exactly mirroring the reference schedule.
func NewSliced(keys [][]byte, ivs [][]byte, ivBits int) (*Sliced, error) {
	return NewSlicedVec[bitslice.V64](keys, ivs, ivBits)
}

// NewSlicedVec builds an engine of up to bitslice.VecLanes[V]() lanes.
func NewSlicedVec[V bitslice.Vec](keys [][]byte, ivs [][]byte, ivBits int) (*SlicedVec[V], error) {
	lanes := len(keys)
	if lanes == 0 || lanes > bitslice.VecLanes[V]() {
		return nil, fmt.Errorf("mickey: lane count %d out of range [1,%d]", lanes, bitslice.VecLanes[V]())
	}
	m := &SlicedVec[V]{
		r: new([regBits]V), s: new([regBits]V),
		nr: new([regBits]V), ns: new([regBits]V),
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
func (m *SlicedVec[V]) Reseed(keys [][]byte, ivs [][]byte, ivBits int) error {
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
	var zero V
	for i := 0; i < regBits; i++ {
		m.r[i] = zero
		m.s[i] = zero
	}

	// Load IV, key, preclock — the same schedule as the reference. Each
	// lane's input string is read as big-endian 64-bit words and one
	// PackWordsVec per word turns bit 63-j of every lane's word into plane
	// j, so the MSB-first input bit i is plane 63-i%64 of word i/64.
	for _, in := range [...]struct {
		src  [][]byte
		bits int
	}{{ivs, ivBits}, {keys, 8 * KeySize}} {
		for w := 0; 64*w < in.bits; w++ {
			for l, p := range in.src {
				m.words[l] = beWord(p, 8*w)
			}
			planes := bitslice.PackWordsVec[V](m.words)
			for i := 64 * w; i < min(in.bits, 64*w+64); i++ {
				m.clockKG(true, planes[63-i%64])
			}
		}
	}
	for i := 0; i < regBits; i++ {
		m.clockKG(true, zero)
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

// ClockVec emits one keystream plane (lane L = lane L's next keystream
// bit) and advances the generator.
func (m *SlicedVec[V]) ClockVec() V {
	var z, zero V
	for k := 0; k < len(z); k++ {
		z[k] = m.r[0][k] ^ m.s[0][k]
	}
	m.clockKG(false, zero)
	return z
}

// ClockWord emits the keystream word of lanes 0..63 (bit L = lane L's
// next keystream bit) and advances all lanes. For the 64-lane engine this
// is the whole keystream plane.
func (m *SlicedVec[V]) ClockWord() uint64 {
	z := m.ClockVec()
	return z[0]
}

// Lanes returns the number of active lanes.
func (m *SlicedVec[V]) Lanes() int { return m.lanes }

// KeystreamBlockVec runs 64 clocks and transposes the result so that
// out[j][k], written little-endian, is 8 keystream bytes of lane 64·k+j
// with the cipher's MSB-first bit packing (byte-compatible with
// Ref.Keystream / Packed.Keystream).
func (m *SlicedVec[V]) KeystreamBlockVec(out *[64]V) {
	// Placing clock t at index (t&^7)|(7-t&7) makes the post-transpose
	// little-endian byte image MSB-first per byte.
	for t := 0; t < 64; t++ {
		out[(t&^7)|(7-t&7)] = m.ClockVec()
	}
	bitslice.TransposeVec(out)
}

// KeystreamBlock is KeystreamBlockVec restricted to lanes 0..63: out[L],
// written little-endian, is 8 keystream bytes of lane L.
func (m *SlicedVec[V]) KeystreamBlock(out *[64]uint64) {
	var blk [64]V
	m.KeystreamBlockVec(&blk)
	for i := range out {
		out[i] = blk[i][0]
	}
}

// Keystream fills one equal-length buffer per lane with that lane's
// keystream bytes. len(bufs) must equal Lanes() and every buffer length
// must be the same multiple of 8.
func (m *SlicedVec[V]) Keystream(bufs [][]byte) error {
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
	var blk [64]V
	for off := 0; off < n; off += 8 {
		m.KeystreamBlockVec(&blk)
		for l := 0; l < m.lanes; l++ {
			binary.LittleEndian.PutUint64(bufs[l][off:off+8], blk[l&63][l>>6])
		}
	}
	return nil
}

// KeystreamWords fills dst with raw device-order keystream words of lanes
// 0..63 (one ClockVec per element, no transposition) — the cheapest bulk
// path when the consumer only needs uniform random bits.
func (m *SlicedVec[V]) KeystreamWords(dst []uint64) {
	for i := range dst {
		dst[i] = m.ClockWord()
	}
}
