package aes

import (
	"encoding/binary"

	"repro/internal/bitslice"
)

// Sliced is the bitsliced AES-128: the 128-bit state becomes 128 uint64
// planes (plane 8b+k = bit k of state byte b across the lanes), so one
// EncryptBlocks call performs 64 independent block encryptions, each lane
// under its own key.
type Sliced struct {
	rk [11][128]uint64 // plane-form round keys

	// sb is the double-buffer for the fused SubBytes+ShiftRows pass:
	// each round writes S-box output planes into sb at their
	// post-ShiftRows positions, then MixColumns+AddRoundKey writes back
	// into the caller's state. Owning it here keeps EncryptBlocks
	// allocation-free; it also means one engine must not encrypt from
	// two goroutines at once (already the contract of every bitsliced
	// engine in this repository).
	sb [128]uint64

	// Per-round per-lane round-key words, reused across rekeys so the
	// segment-rekey hot path never allocates.
	klo, khi [11][64]uint64
}

// shape is the material and buffer contract of both engines: 16-byte
// keys, 8-byte CTR nonces, one block per lane.
var shape = bitslice.Shape{Pkg: "aes", Key: 16, IV: 8, Block: BlockSize}

// NewSliced expands one 16-byte AES-128 key per lane, 64 lanes.
func NewSliced(keys [][]byte) (*Sliced, error) {
	if err := shape.CheckKeys(keys); err != nil {
		return nil, err
	}
	s := &Sliced{}
	s.rekey(keys)
	return s, nil
}

// Reseed replaces every lane's key, re-running the key schedule in place.
// Reseed is allocation-free: the key material lands in scratch owned by
// the engine.
func (s *Sliced) Reseed(keys [][]byte) error {
	if err := shape.CheckKeys(keys); err != nil {
		return err
	}
	s.rekey(keys)
	return nil
}

// rekey runs every lane's key schedule and packs the round keys into
// planes. It checks nothing: one 16-byte key per lane.
func (s *Sliced) rekey(keys [][]byte) {
	var rk [11][16]byte
	for l, key := range keys {
		expandKey128(key, &rk)
		for r := range rk {
			s.klo[r][l] = binary.LittleEndian.Uint64(rk[r][0:8])
			s.khi[r][l] = binary.LittleEndian.Uint64(rk[r][8:16])
		}
	}
	for r := range s.rk {
		*(*[64]uint64)(s.rk[r][0:64]) = bitslice.PackWords(&s.klo[r])
		*(*[64]uint64)(s.rk[r][64:128]) = bitslice.PackWords(&s.khi[r])
	}
}

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
	aes     Sliced
	noncePl [64]uint64 // planes of block bytes 0..7: the per-lane nonces
	ctrPl   [64]uint64 // planes of block bytes 8..15: the big-endian counters
	st      [128]uint64
	tile    bitslice.Tile // lane store staging, reused by every fill
}

// BatchSize is the output of one SlicedCTR batch: 64 lanes × 16 bytes.
const BatchSize = 64 * BlockSize

// NewSlicedCTRVec builds the 64-lane generator; keys[L] and nonces[L]
// (8 bytes each) belong to lane L. Lane counters start at zero. The type
// parameter admits only bitslice.V64; it stays because the bench/ module
// instantiates NewSlicedCTRVec[bitslice.V64].
func NewSlicedCTRVec[_ bitslice.V64](keys [][]byte, nonces [][]byte) (*SlicedCTR, error) {
	if err := shape.Check(keys, nonces); err != nil {
		return nil, err
	}
	g := &SlicedCTR{}
	g.Rekey(keys, nonces)
	return g, nil
}

// Reseed checks fresh per-lane keys and nonces and rekeys every lane
// with them.
func (g *SlicedCTR) Reseed(keys [][]byte, nonces [][]byte) error {
	if err := shape.Check(keys, nonces); err != nil {
		return err
	}
	g.Rekey(keys, nonces)
	return nil
}

// Rekey rekeys every lane, caches its nonce as bit planes (one word
// transpose here replaces one per batch) and resets its counter to
// zero. It checks nothing: the material must have the shape the front
// doors accepted (one 16-byte key and one 8-byte nonce per lane).
func (g *SlicedCTR) Rekey(keys, nonces [][]byte) {
	g.aes.rekey(keys)
	var words [64]uint64
	for l, n := range nonces {
		words[l] = binary.LittleEndian.Uint64(n)
	}
	g.noncePl = bitslice.PackWords(&words)
	clear(g.ctrPl[:])
}

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

// NextBatch writes BatchSize bytes into dst (lane L's block at offset
// 16·L, identical bytes to lane L's scalar CTR stream) and advances every
// lane counter. len(dst) must be at least BatchSize; NextBatch panics
// otherwise.
func (g *SlicedCTR) NextBatch(dst []byte) {
	if err := shape.CheckBatch(dst); err != nil {
		panic(err)
	}
	g.nextBlockPlanes()
	for l := range bitslice.W {
		binary.LittleEndian.PutUint64(dst[16*l:], g.st[l])
		binary.LittleEndian.PutUint64(dst[16*l+8:], g.st[64+l])
	}
}

// Keystream fills one buffer per lane with that lane's CTR keystream —
// the same bytes NextBatch would deliver, written straight into the
// per-lane destinations with no intermediate batch buffer. bufs holds 64
// buffers of one length, a multiple of BlockSize. The fill is
// allocation-free.
func (g *SlicedCTR) Keystream(bufs [][]byte) error {
	if err := shape.CheckBuffers(bufs); err != nil {
		return err
	}
	g.Fill((*[bitslice.W][]byte)(bufs))
	return nil
}

// Fill is the per-pass fill: lane L's keystream into bufs[L]. The
// buffers must have one equal length, a multiple of BlockSize; Fill
// checks nothing.
func (g *SlicedCTR) Fill(bufs *[bitslice.W][]byte) { g.tile.Store(bufs[:], g.blocks) }

// blocks is the lane store's block source. One CTR block per lane is
// two consecutive 8-byte rows: its low words (g.st[0:64]) and then its
// high words (g.st[64:128]). The buffers are multiples of BlockSize, so
// rows always come in pairs.
func (g *SlicedCTR) blocks(rows [][64]uint64) {
	for i := 0; i < len(rows); i += 2 {
		g.nextBlockPlanes()
		rows[i] = [64]uint64(g.st[0:64])
		rows[i+1] = [64]uint64(g.st[64:128])
	}
}
