package aes

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bitslice"
)

// Sliced is the bitsliced AES-128: the 128-bit state becomes 128 uint64
// planes (plane 8b+k = bit k of state byte b across the lanes), so one
// EncryptBlocks call performs 64 independent block encryptions, each lane
// under its own key.
type Sliced struct {
	rk    [11][128]uint64 // plane-form round keys
	lanes int

	// sb is the double-buffer for the fused SubBytes+ShiftRows pass:
	// each round writes S-box output planes into sb at their
	// post-ShiftRows positions, then MixColumns+AddRoundKey writes back
	// into the caller's state. Owning it here keeps EncryptBlocks
	// allocation-free; it also means one engine must not encrypt from
	// two goroutines at once (already the contract of every bitsliced
	// engine in this repository).
	sb [128]uint64

	// Per-round per-lane round-key words, reused across Reseed calls so
	// the segment-rekey hot path never allocates.
	klo, khi [][]uint64
}

// NewSliced expands one 16-byte AES-128 key per lane (1..64 lanes).
func NewSliced(keys [][]byte) (*Sliced, error) {
	lanes := len(keys)
	if lanes == 0 || lanes > bitslice.W {
		return nil, fmt.Errorf("aes: lane count %d out of range [1,%d]", lanes, bitslice.W)
	}
	s := &Sliced{
		lanes: lanes,
		klo:   make([][]uint64, 11),
		khi:   make([][]uint64, 11),
	}
	for r := 0; r <= 10; r++ {
		s.klo[r] = make([]uint64, lanes)
		s.khi[r] = make([]uint64, lanes)
	}
	if err := s.Reseed(keys); err != nil {
		return nil, err
	}
	return s, nil
}

// Reseed replaces every lane's key, re-running the key schedule in place.
// The lane count must match the one the engine was built with. Reseed is
// allocation-free: the key material lands in scratch owned by the engine.
func (s *Sliced) Reseed(keys [][]byte) error {
	if len(keys) != s.lanes {
		return fmt.Errorf("aes: %d keys for %d lanes", len(keys), s.lanes)
	}
	var rk [11][16]byte
	for l, key := range keys {
		if len(key) != 16 {
			return fmt.Errorf("aes: lane %d key must be 16 bytes", l)
		}
		expandKey128(key, &rk)
		for r := 0; r <= 10; r++ {
			s.klo[r][l] = binary.LittleEndian.Uint64(rk[r][0:8])
			s.khi[r][l] = binary.LittleEndian.Uint64(rk[r][8:16])
		}
	}
	for r := 0; r <= 10; r++ {
		lo := bitslice.PackWords(s.klo[r])
		hi := bitslice.PackWords(s.khi[r])
		copy(s.rk[r][0:64], lo[:])
		copy(s.rk[r][64:128], hi[:])
	}
	return nil
}

// Lanes returns the number of active lanes.
func (s *Sliced) Lanes() int { return s.lanes }

// EncryptBlocks encrypts the lane blocks held in plane form in st. The
// round loop is two fused passes per round — SubBytes+ShiftRows (S-box
// planes written at their post-rotation byte positions, so ShiftRows is
// pure index renaming) ping-ponging into the engine's scratch, then
// MixColumns+AddRoundKey back into st — with the round-0 whitening
// folded into the first S-box load and the final AddRoundKey fused with
// the copy-back. No pass over the 128 planes ever runs alone.
func (s *Sliced) EncryptBlocks(st *[128]uint64) {
	sb := &s.sb
	subShiftXorP(sb, st, &s.rk[0])
	mixColumnsARKP(st, sb, &s.rk[1])
	for r := 2; r < 10; r++ {
		subShiftP(sb, st)
		mixColumnsARKP(st, sb, &s.rk[r])
	}
	subShiftP(sb, st)
	addRoundKeyFromP(st, sb, &s.rk[10])
}

// PackBlocks converts 1..64 16-byte blocks (one per lane) into plane form.
func PackBlocks(blocks [][16]byte) [128]uint64 {
	if len(blocks) > bitslice.W {
		panic("aes: more blocks than lanes")
	}
	los := make([]uint64, len(blocks))
	his := make([]uint64, len(blocks))
	for l := range blocks {
		los[l] = binary.LittleEndian.Uint64(blocks[l][0:8])
		his[l] = binary.LittleEndian.Uint64(blocks[l][8:16])
	}
	var st [128]uint64
	lo := bitslice.PackWords(los)
	hi := bitslice.PackWords(his)
	copy(st[0:64], lo[:])
	copy(st[64:128], hi[:])
	return st
}

// UnpackBlocks converts plane form back to per-lane blocks.
func UnpackBlocks(st *[128]uint64, lanes int) [][16]byte {
	loW := bitslice.UnpackWords((*[64]uint64)(st[0:64]), lanes)
	hiW := bitslice.UnpackWords((*[64]uint64)(st[64:128]), lanes)
	out := make([][16]byte, lanes)
	for l := 0; l < lanes; l++ {
		binary.LittleEndian.PutUint64(out[l][0:8], loW[l])
		binary.LittleEndian.PutUint64(out[l][8:16], hiW[l])
	}
	return out
}

// SlicedCTR is the bitsliced AES-128-CTR generator of paper Fig. 3: every
// lane runs its own nonce‖counter stream under its own key, and one
// batch encrypts one block per lane at once.
//
// The CTR input block lives permanently in plane form: noncePl holds the
// (constant) nonce planes and ctrPl the live counter planes, so a batch
// never transposes scalar words into planes — it copies the cached
// planes into the state and advances the counter with a bitsliced
// ripple-carry add (incCounterPlanes). Planes are re-derived from scalar
// material only on Reseed.
type SlicedCTR struct {
	aes     *Sliced
	noncePl [64]uint64 // planes of block bytes 0..7: the per-lane nonces
	ctrPl   [64]uint64 // planes of block bytes 8..15: the big-endian counters
	st      [128]uint64

	// nonces is the Reseed-time packing scratch, owned by the generator
	// so rekeying never allocates.
	nonces []uint64
}

// BatchSize is the output of one SlicedCTR batch: 64 lanes × 16 bytes.
const BatchSize = 64 * BlockSize

// NewSlicedCTRVec builds a generator of 1..64 lanes; keys[L] and
// nonces[L] (8 bytes each) belong to lane L. Lane counters start at
// zero. The type parameter admits only bitslice.V64; it stays because
// the bench/ module instantiates NewSlicedCTRVec[bitslice.V64].
func NewSlicedCTRVec[_ bitslice.V64](keys [][]byte, nonces [][]byte) (*SlicedCTR, error) {
	a, err := NewSliced(keys)
	if err != nil {
		return nil, err
	}
	g := &SlicedCTR{aes: a, nonces: make([]uint64, a.lanes)}
	if err := g.loadNonces(nonces); err != nil {
		return nil, err
	}
	return g, nil
}

// loadNonces validates the per-lane nonces and caches them as bit
// planes: one word transpose here replaces one per batch.
func (g *SlicedCTR) loadNonces(nonces [][]byte) error {
	if len(nonces) != g.aes.lanes {
		return fmt.Errorf("aes: %d nonces for %d lanes", len(nonces), g.aes.lanes)
	}
	for l, n := range nonces {
		if len(n) != 8 {
			return fmt.Errorf("aes: lane %d nonce must be 8 bytes", l)
		}
		g.nonces[l] = binary.LittleEndian.Uint64(n)
	}
	g.noncePl = bitslice.PackWords(g.nonces)
	return nil
}

// Reseed rekeys every lane, replaces its nonce, and resets its counter to
// zero. The lane count must match the one the generator was built with.
func (g *SlicedCTR) Reseed(keys [][]byte, nonces [][]byte) error {
	if err := g.aes.Reseed(keys); err != nil {
		return err
	}
	if err := g.loadNonces(nonces); err != nil {
		return err
	}
	clear(g.ctrPl[:])
	return nil
}

// Lanes returns the number of active lanes.
func (g *SlicedCTR) Lanes() int { return g.aes.lanes }

// ctrPlane maps counter bit p (0 = least significant) to its index in
// ctrPl: block byte 8+i holds big-endian counter byte 7-i, and plane
// 8i+j of the high half is bit j of block byte 8+i.
func ctrPlane(p int) int { return 56 - 8*(p>>3) + (p & 7) }

// incCounterPlanes adds one to every lane's counter directly in plane
// form: a bitsliced ripple-carry add from the counter's least
// significant plane upward, stopping as soon as no lane carries. The
// core stream resets counters to zero each segment pass, so every
// lane's counter is small and the live carry chain is a handful of
// planes; a full 64-plane ripple happens only at the 2^64 wraparound,
// where every counter returns to zero exactly like the scalar uint64
// counter it mirrors.
func (g *SlicedCTR) incCounterPlanes() {
	carry := ^uint64(0)
	for p := 0; p < 64 && carry != 0; p++ {
		idx := ctrPlane(p)
		old := g.ctrPl[idx]
		g.ctrPl[idx] = old ^ carry
		carry &= old
	}
}

// nextBlockPlanes encrypts one nonce‖counter block per lane and advances
// every lane counter. The input block is assembled by plane copy alone —
// the nonce planes are cached and the counter already lives in plane
// form — and the two output transposes run in place, so afterwards
// g.st[L] and g.st[64+L] are lane L's low and high output words.
func (g *SlicedCTR) nextBlockPlanes() {
	st := &g.st
	copy(st[0:64], g.noncePl[:])
	copy(st[64:128], g.ctrPl[:])
	g.incCounterPlanes()
	g.aes.EncryptBlocks(st)
	bitslice.Transpose64((*[64]uint64)(st[0:64]))
	bitslice.Transpose64((*[64]uint64)(st[64:128]))
}

// NextBatch writes lanes×16 bytes into dst (lane L's block at offset
// 16·L, identical bytes to lane L's scalar CTR stream) and advances every
// lane counter. len(dst) must be at least Lanes()×16.
func (g *SlicedCTR) NextBatch(dst []byte) {
	lanes := g.aes.lanes
	if len(dst) < lanes*BlockSize {
		panic("aes: batch buffer too small")
	}
	g.nextBlockPlanes()
	for l := 0; l < lanes; l++ {
		binary.LittleEndian.PutUint64(dst[16*l:], g.st[l])
		binary.LittleEndian.PutUint64(dst[16*l+8:], g.st[64+l])
	}
}

// Keystream fills one equal-length buffer per lane with that lane's CTR
// keystream — the same bytes NextBatch would deliver, written straight
// into the per-lane destinations with no intermediate batch buffer.
// len(bufs) must equal Lanes() and every buffer length must be the same
// multiple of BlockSize. The fill is allocation-free.
func (g *SlicedCTR) Keystream(bufs [][]byte) error {
	if len(bufs) != g.aes.lanes {
		return fmt.Errorf("aes: %d buffers for %d lanes", len(bufs), g.aes.lanes)
	}
	if len(bufs) == 0 {
		return nil
	}
	n := len(bufs[0])
	for _, b := range bufs {
		if len(b) != n {
			return fmt.Errorf("aes: ragged keystream buffers")
		}
	}
	if n%BlockSize != 0 {
		return fmt.Errorf("aes: buffer length must be a multiple of %d", BlockSize)
	}
	for off := 0; off < n; off += BlockSize {
		g.nextBlockPlanes()
		for l, b := range bufs {
			binary.LittleEndian.PutUint64(b[off:off+8], g.st[l])
			binary.LittleEndian.PutUint64(b[off+8:off+16], g.st[64+l])
		}
	}
	return nil
}
