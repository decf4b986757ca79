package trivium

import "repro/internal/bitslice"

// window is the number of clocks in one block: the block loop appends
// window planes to each register's log and then rebases it (the same
// append-and-rebase scheme as the bitsliced Grain engine).
const window = 64

// register lengths of the three shift registers.
const (
	lenA = 93
	lenB = 84
	lenC = 111
)

// Sliced is the bitsliced Trivium engine: one uint64 plane per state
// bit, 64 independent cipher instances per plane. Each register is an
// age-ordered append log — plane buf[len-j] holds the register's bit
// s_j between blocks — so the per-clock rotation is a single append and
// the paper's shift elimination applies unchanged. The engine clocks
// only in blocks of window clocks, initialization included, and every
// log sits at origin 0 between blocks.
type Sliced struct {
	a    [lenA + window]uint64
	b    [lenB + window]uint64
	c    [lenC + window]uint64
	tile bitslice.Tile // lane store staging, reused by every fill
}

// shape is the engine's material and buffer contract.
var shape = bitslice.Shape{Pkg: "trivium", Key: KeySize, IV: IVSize, Block: 8}

// NewSlicedVec builds the 64-lane engine; keys[L]/ivs[L] belong to lane
// L. The type parameter admits only bitslice.V64; it stays because the
// bench/ module instantiates NewSlicedVec[bitslice.V64].
func NewSlicedVec[_ bitslice.V64](keys, ivs [][]byte) (*Sliced, error) {
	if err := shape.Check(keys, ivs); err != nil {
		return nil, err
	}
	t := &Sliced{}
	t.Rekey(keys, ivs)
	return t, nil
}

// Reseed checks fresh per-lane key/IV material and rekeys every lane
// with it.
func (t *Sliced) Reseed(keys, ivs [][]byte) error {
	if err := shape.Check(keys, ivs); err != nil {
		return err
	}
	t.Rekey(keys, ivs)
	return nil
}

// Rekey reloads fresh per-lane key/IV material and runs the spec's
// initialization clocks as initClocks/window blocks whose output is
// dropped. It checks nothing: the material must have the shape the
// engine's front doors accepted (one KeySize key and one IVSize IV per
// lane).
func (t *Sliced) Rekey(keys, ivs [][]byte) {
	clear(t.a[:])
	clear(t.b[:])
	clear(t.c[:])
	// buf[len-j] = s_j: key bit i is s_{i+1} of register A, IV bit i
	// is s_{i+1} of register B (i.e. spec bit s_{94+i}).
	load(t.a[:lenA], keys)
	load(t.b[:lenB], ivs)
	// s286..s288 = 1 → register C bits s_109, s_110, s_111.
	t.c[lenC-109], t.c[lenC-110], t.c[lenC-111] = ^uint64(0), ^uint64(0), ^uint64(0)
	var z [64]uint64
	for range initClocks / window {
		t.block(&z)
	}
}

// load writes the 80 MSB-first bits of every lane's string into reg,
// bit i at plane len(reg)-1-i, packing 64 bits per lane at a time.
func load(reg []uint64, src [][]byte) {
	var planes [64]uint64
	for i := 0; i < 80; i++ {
		if i%64 == 0 {
			bitslice.PackBytes(&planes, src, i/8)
		}
		reg[len(reg)-1-i] = planes[i%64]
	}
}

// block is the engine's one clock loop: it runs window clocks, writes
// clock p's keystream plane (bit L = lane L's bit) to out[p^7], and
// rebases the logs to origin 0. Within the block s_j of register A
// lives at a[p+lenA-j], likewise for B and C; indexing the planes
// directly folds everything into two-operand ALU ops and lets the
// scheduler keep all taps in flight.
func (t *Sliced) block(out *[64]uint64) {
	a, b, c := &t.a, &t.b, &t.c
	for p := 0; p < window; p++ {
		t1 := a[p+lenA-66] ^ a[p+lenA-93]
		t2 := b[p+lenB-69] ^ b[p+lenB-84]                   // spec s162=s_{B69}, s177=s_{B84}
		t3 := c[p+lenC-66] ^ c[p+lenC-111]                  // spec s243=s_{C66}, s288=s_{C111}
		n1 := t1 ^ a[p+lenA-91]&a[p+lenA-92] ^ b[p+lenB-78] // s171 = s_{B78}
		n2 := t2 ^ b[p+lenB-82]&b[p+lenB-83] ^ c[p+lenC-87] // s264 = s_{C87}
		n3 := t3 ^ c[p+lenC-109]&c[p+lenC-110] ^ a[p+lenA-69]
		a[p+lenA] = n3
		b[p+lenB] = n1
		c[p+lenC] = n2
		// Clock p's plane goes to row p^7: MSB-first bits per byte.
		out[(p^7)&63] = t1 ^ t2 ^ t3
	}
	// s_j moves from buf[window+len-j] to buf[len-j]: no state bit
	// changes, only the buffer index of the origin.
	copy(a[:lenA], a[window:])
	copy(b[:lenB], b[window:])
	copy(c[:lenC], c[window:])
}

// keystreamBlock runs one block and transposes so that out[L], written
// little-endian, is 8 keystream bytes of lane L, MSB-first per byte
// (byte-compatible with Ref.Keystream).
func (t *Sliced) keystreamBlock(out *[64]uint64) {
	t.block(out)
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

// Keystream fills one buffer per lane, 64 buffers of one length, a
// multiple of 8.
func (t *Sliced) Keystream(bufs [][]byte) error {
	if err := shape.CheckBuffers(bufs); err != nil {
		return err
	}
	t.Fill((*[bitslice.W][]byte)(bufs))
	return nil
}

// Fill is the per-pass fill: lane L's keystream into bufs[L]. The
// buffers must have one equal length, a multiple of 8; Fill checks
// nothing.
func (t *Sliced) Fill(bufs *[bitslice.W][]byte) { t.tile.Store(bufs[:], t.blocks) }

// blocks is the lane store's block source: the next keystream block
// into each row.
func (t *Sliced) blocks(rows [][64]uint64) {
	for i := range rows {
		t.keystreamBlock(&rows[i])
	}
}
