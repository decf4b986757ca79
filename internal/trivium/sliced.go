package trivium

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitslice"
)

// window is the number of clocks between buffer rebases (the same
// append-and-rebase scheme as the bitsliced Grain engine).
const window = 64

// register lengths of the three shift registers.
const (
	lenA = 93
	lenB = 84
	lenC = 111
)

// Sliced is the bitsliced Trivium engine: one uint64 plane per state
// bit, 64 independent cipher instances per plane. Each plane buffer is an
// age-ordered append log — plane buf[pos-j] holds the register's bit
// s_j — so the per-clock rotation is a single append and the paper's
// shift elimination applies unchanged.
type Sliced struct {
	a, b, c []uint64
	pos     int
	lanes   int
}

// NewSlicedVec builds an engine of 1..64 lanes; keys[L]/ivs[L] belong to
// lane L. The type parameter admits only bitslice.V64; it stays because
// the bench/ module instantiates NewSlicedVec[bitslice.V64].
func NewSlicedVec[_ bitslice.V64](keys, ivs [][]byte) (*Sliced, error) {
	lanes := len(keys)
	if lanes == 0 || lanes > bitslice.W {
		return nil, fmt.Errorf("trivium: lane count %d out of range [1,%d]", lanes, bitslice.W)
	}
	t := &Sliced{
		a:     make([]uint64, lenA+window),
		b:     make([]uint64, lenB+window),
		c:     make([]uint64, lenC+window),
		lanes: lanes,
	}
	if err := t.Reseed(keys, ivs); err != nil {
		return nil, err
	}
	return t, nil
}

// Reseed reloads fresh per-lane key/IV material and re-runs the spec's
// initialization clocks, reusing the engine's buffers. The lane count
// must match the one the engine was built with.
func (t *Sliced) Reseed(keys, ivs [][]byte) error {
	if len(keys) != t.lanes {
		return fmt.Errorf("trivium: %d keys for %d lanes", len(keys), t.lanes)
	}
	if len(ivs) != t.lanes {
		return fmt.Errorf("trivium: %d keys but %d ivs", len(keys), len(ivs))
	}
	for l := 0; l < t.lanes; l++ {
		if len(keys[l]) != KeySize {
			return fmt.Errorf("trivium: lane %d key must be %d bytes", l, KeySize)
		}
		if len(ivs[l]) != IVSize {
			return fmt.Errorf("trivium: lane %d iv must be %d bytes", l, IVSize)
		}
	}
	clear(t.a)
	clear(t.b)
	clear(t.c)
	for l := 0; l < t.lanes; l++ {
		// buf[len-j] = s_j: key bit i is s_{i+1} of register A, IV bit i
		// is s_{i+1} of register B (i.e. spec bit s_{94+i}).
		for i := 0; i < 80; i++ {
			bitslice.SetLaneBit(t.a, lenA-1-i, l, bitOf(keys[l], i))
			bitslice.SetLaneBit(t.b, lenB-1-i, l, bitOf(ivs[l], i))
		}
		// s286..s288 = 1 → register C bits s_109, s_110, s_111.
		bitslice.SetLaneBit(t.c, lenC-109, l, 1)
		bitslice.SetLaneBit(t.c, lenC-110, l, 1)
		bitslice.SetLaneBit(t.c, lenC-111, l, 1)
	}
	t.pos = 0
	for i := 0; i < initClocks; i++ {
		t.ClockVec()
	}
	return nil
}

// Lanes returns the number of active lanes.
func (t *Sliced) Lanes() int { return t.lanes }

// ClockVec advances all lanes one step and returns the keystream plane
// (bit L = lane L's output bit).
func (t *Sliced) ClockVec() uint64 {
	// s_j of register A lives at a[pos+lenA-j]; likewise for B and C.
	// Indexing the planes directly folds everything into two-operand ALU
	// ops and lets the scheduler keep all taps in flight.
	p := t.pos
	a, b, c := t.a, t.b, t.c
	t1 := a[p+lenA-66] ^ a[p+lenA-93]
	t2 := b[p+lenB-69] ^ b[p+lenB-84]  // spec s162=s_{B69}, s177=s_{B84}
	t3 := c[p+lenC-66] ^ c[p+lenC-111] // spec s243=s_{C66}, s288=s_{C111}
	z := t1 ^ t2 ^ t3
	n1 := t1 ^ a[p+lenA-91]&a[p+lenA-92] ^ b[p+lenB-78] // s171 = s_{B78}
	n2 := t2 ^ b[p+lenB-82]&b[p+lenB-83] ^ c[p+lenC-87] // s264 = s_{C87}
	n3 := t3 ^ c[p+lenC-109]&c[p+lenC-110] ^ a[p+lenA-69]
	a[p+lenA] = n3
	b[p+lenB] = n1
	c[p+lenC] = n2
	t.pos++
	if t.pos == window {
		copy(a[:lenA], a[window:])
		copy(b[:lenB], b[window:])
		copy(c[:lenC], c[window:])
		t.pos = 0
	}
	return z
}

// keystreamBlock runs 64 clocks and transposes so that out[L], written
// little-endian, is 8 keystream bytes of lane L, MSB-first per byte
// (byte-compatible with Ref.Keystream).
func (t *Sliced) keystreamBlock(out *[64]uint64) {
	for i := 0; i < 64; i++ {
		out[(i&^7)|(7-i&7)] = t.ClockVec()
	}
	bitslice.Transpose64(out)
}

// KeystreamBlockVec is keystreamBlock on V64 planes, kept for the bench/
// module.
func (t *Sliced) KeystreamBlockVec(out *[64]bitslice.V64) {
	var blk [64]uint64
	t.keystreamBlock(&blk)
	for i, w := range blk {
		out[i] = bitslice.V64{w}
	}
}

// Keystream fills one equal-length buffer per lane; lengths must be equal
// multiples of 8.
func (t *Sliced) Keystream(bufs [][]byte) error {
	if len(bufs) != t.lanes {
		return fmt.Errorf("trivium: %d buffers for %d lanes", len(bufs), t.lanes)
	}
	if len(bufs) == 0 {
		return nil
	}
	n := len(bufs[0])
	for _, b := range bufs {
		if len(b) != n {
			return fmt.Errorf("trivium: ragged keystream buffers")
		}
	}
	if n%8 != 0 {
		return fmt.Errorf("trivium: buffer length must be a multiple of 8")
	}
	var blk [64]uint64
	for off := 0; off < n; off += 8 {
		t.keystreamBlock(&blk)
		for l := 0; l < t.lanes; l++ {
			binary.LittleEndian.PutUint64(bufs[l][off:off+8], blk[l])
		}
	}
	return nil
}
