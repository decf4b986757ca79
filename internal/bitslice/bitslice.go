// Package bitslice implements the column-major ("bitsliced") data
// representation at the heart of BSRNG (paper §4.1).
//
// In the conventional row-major layout, one machine word holds many bits of
// a single cipher instance. In the column-major layout used here, one
// machine word holds the *same* bit of many independent instances: plane i,
// bit L is bit i of lane L's state. A single full-width XOR/AND/OR then
// advances all lanes at once, and the shift-and-mask work of an LFSR
// becomes plain register renaming.
//
// The package provides the representation change itself: the 64x64
// bit-matrix transposition (Transpose64: an AVX-512 VBMI + GFNI kernel in
// transpose64_amd64.s where the CPU has one, generated straight-line Go
// in transpose64_gen.go everywhere else), the tiled lane store every
// engine writes its keystream through (Tile), the word packing of lane
// material (PackWords, PackBytes) and the single-bit lane accessors.
package bitslice

// W is the native lane count: one uint64 plane carries W independent
// instances.
const W = 64

// Transpose64 performs an in-place 64x64 bit-matrix transposition:
// afterwards, bit j of a[k] is the former bit k of a[j].
//
// With a[t] holding the lane-parallel output word of clock t (bit L =
// lane L), the transposed a[L] holds 64 consecutive keystream bits of
// lane L (bit t = clock t).
//
// It runs the vector kernel when the CPU passed its gate at start-up
// (hasVec) and the generated Go form otherwise; both compute the same
// function of a.
func Transpose64(a *[64]uint64) {
	if hasVec {
		transpose64Vec(a)
		return
	}
	transpose64Generic(a)
}

// V64 is one 64-lane plane wrapped in a one-word array. It survives only
// because the bench/ module declares its block buffers as [64]V64 and
// instantiates the engine constructors with it; every engine runs on
// plain uint64 planes.
type V64 [1]uint64

// TransposeVec is Transpose64 on V64 planes, kept for the bench/ module.
func TransposeVec(a *[64]V64) {
	var t [64]uint64
	for i := range a {
		t[i] = a[i][0]
	}
	Transpose64(&t)
	for i := range a {
		a[i][0] = t[i]
	}
}

// SetLaneBit sets bit i of the given lane in planes to b (0 or 1).
func SetLaneBit(planes []uint64, i, lane int, b uint8) {
	mask := uint64(1) << uint(lane)
	if b&1 == 1 {
		planes[i] |= mask
	} else {
		planes[i] &^= mask
	}
}

// LaneBit reads bit i of the given lane.
func LaneBit(planes []uint64, i, lane int) uint8 {
	return uint8((planes[i] >> uint(lane)) & 1)
}

// PackWords packs one uint64 value per lane into 64 planes: plane i, bit
// L is bit i of vals[L]. vals is left untouched. Transpose64 of the
// planes gives the values back.
func PackWords(vals *[64]uint64) [64]uint64 {
	a := *vals
	Transpose64(&a)
	return a
}
