package xorgens

import "repro/internal/bitslice"

// Sliced is the bitsliced xorgens engine: one uint64 plane per state
// bit, 64 independent generator instances per plane. The r-word ring
// lives as r×64 planes — plane w·64+n is bit n of ring word w — and the
// word recurrence becomes pure plane XOR circuitry: a left word shift by
// a maps plane n to plane n−a, so t ^= t<<a is 64−a in-place plane XORs
// at a fixed offset, with no per-bit extraction anywhere. One step
// advances every lane by a whole 64-bit output word (64 planes), which
// one Transpose64 turns into 8 little-endian keystream bytes per lane —
// 64× fewer clock iterations per output byte than the bit-serial cipher
// engines need.
type Sliced struct {
	x [r * 64]uint64 // plane w*64+n = bit n of ring word w
	i int            // ring slot of the most recently produced word

	// Reusable scratch, so keystream generation and Rekey allocate
	// nothing in steady state (the engine rekeys at every segment-pass
	// boundary).
	t, v, vals [64]uint64
	st         [bitslice.W * r]uint64 // every lane's r expanded state words (Rekey)
	tile       bitslice.Tile          // lane store staging
}

// shape is the engine's material and buffer contract.
var shape = bitslice.Shape{Pkg: "xorgens", Key: KeySize, IV: IVSize, Block: 8}

// NewSlicedVec builds the 64-lane engine; keys[L]/ivs[L] belong to lane
// L. The type parameter admits only bitslice.V64; it stays because the
// bench/ module instantiates NewSlicedVec[bitslice.V64].
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

// Rekey reloads fresh per-lane key/IV material, reusing the engine's
// buffers. Each lane's state is expanded (and warmed up) in the scalar
// domain — the expansion is per-lane sequential work with no lock-step
// structure to exploit — then packed into planes one ring word at a
// time via the 64×64 word transpose. It checks nothing: the material
// must have the shape the engine's front doors accepted (one KeySize key
// and one IVSize IV per lane).
func (g *Sliced) Rekey(keys, ivs [][]byte) {
	for l := range bitslice.W {
		expand(keys[l], ivs[l], g.st[l*r:(l+1)*r])
	}
	for w := range r {
		for l := range bitslice.W {
			g.vals[l] = g.st[l*r+w]
		}
		*(*[64]uint64)(g.x[w*64 : (w+1)*64]) = bitslice.PackWords(&g.vals)
	}
	g.i = r - 1
}

// clockPlanes advances all lanes one step and leaves the 64 bit planes
// of the new word x_k in out (plane n = bit n of every lane's word).
func (g *Sliced) clockPlanes(out *[64]uint64) {
	i := (g.i + 1) & (r - 1)
	j := (i + (r - s)) & (r - 1)
	tp := g.x[i*64 : i*64+64]
	vp := g.x[j*64 : j*64+64]
	t, v := &g.t, &g.v
	copy(t[:], tp)
	copy(v[:], vp)
	// t ^= t<<a: bit n of the shifted word is bit n−a, so plane n
	// absorbs plane n−a; descending order keeps the source planes
	// pre-shift. Likewise t ^= t>>b ascending.
	for n := 63; n >= a; n-- {
		t[n] ^= t[n-a]
	}
	for n := 0; n < 64-b; n++ {
		t[n] ^= t[n+b]
	}
	for n := 63; n >= c; n-- {
		v[n] ^= v[n-c]
	}
	for n := 0; n < 64-d; n++ {
		v[n] ^= v[n+d]
	}
	for n := 0; n < 64; n++ {
		t[n] ^= v[n]
	}
	copy(tp, t[:])
	copy(out[:], t[:])
	g.i = i
}

// keystreamBlock advances one step and transposes, so out[L], written
// little-endian, is the next 8 keystream bytes of lane L (byte-compatible
// with Ref.Keystream).
func (g *Sliced) keystreamBlock(out *[64]uint64) {
	g.clockPlanes(out)
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

// Keystream fills one buffer per lane, 64 buffers of one length, a
// multiple of 8.
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
