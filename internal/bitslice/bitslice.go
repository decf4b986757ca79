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
// engine writes its keystream through (Tile), lane packing/unpacking,
// and small helpers shared by every bitsliced engine in this repository.
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

// PackBits converts row-major per-lane bit vectors into column-major
// planes. bits[lane][i] must be 0 or 1; all lanes must have equal length.
// The result has len(bits[0]) planes; bit L of plane i is bits[L][i].
// Up to W lanes are supported.
func PackBits(bits [][]uint8) []uint64 {
	if len(bits) == 0 {
		return nil
	}
	if len(bits) > W {
		panic("bitslice: more than 64 lanes")
	}
	n := len(bits[0])
	planes := make([]uint64, n)
	for lane, bv := range bits {
		if len(bv) != n {
			panic("bitslice: ragged lane lengths")
		}
		for i, b := range bv {
			planes[i] |= uint64(b&1) << uint(lane)
		}
	}
	return planes
}

// UnpackBits is the inverse of PackBits for the given number of lanes.
func UnpackBits(planes []uint64, lanes int) [][]uint8 {
	if lanes < 0 || lanes > W {
		panic("bitslice: lane count out of range")
	}
	out := make([][]uint8, lanes)
	for l := range out {
		out[l] = ExtractLane(planes, l)
	}
	return out
}

// ExtractLane returns the row-major bit vector of a single lane.
func ExtractLane(planes []uint64, lane int) []uint8 {
	bits := make([]uint8, len(planes))
	for i, p := range planes {
		bits[i] = uint8((p >> uint(lane)) & 1)
	}
	return bits
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

// Broadcast returns the plane with every lane set to b (0 or 1): the
// bitsliced representation of a constant bit.
func Broadcast(b uint8) uint64 {
	if b&1 == 1 {
		return ^uint64(0)
	}
	return 0
}

// PackWords packs one uint64 value per lane into 64 planes: plane i, bit
// L is bit i of vals[L]. vals is left untouched.
func PackWords(vals *[64]uint64) [64]uint64 {
	a := *vals
	Transpose64(&a)
	return a
}

// UnpackWords inverts PackWords: it returns one uint64 per lane assembled
// from 64 planes.
func UnpackWords(planes *[64]uint64, lanes int) []uint64 {
	if lanes < 0 || lanes > W {
		panic("bitslice: lane count out of range")
	}
	a := *planes
	Transpose64(&a)
	return a[:lanes:lanes]
}

// BytesToBits expands a byte stream into bits, LSB-first within each byte
// (the SP 800-22 and eSTREAM bit ordering used throughout this repo).
func BytesToBits(p []byte) []uint8 {
	bits := make([]uint8, 8*len(p))
	for i, b := range p {
		for j := 0; j < 8; j++ {
			bits[8*i+j] = (b >> uint(j)) & 1
		}
	}
	return bits
}

// BitsToBytes packs bits (LSB-first per byte) into bytes; len(bits) must be
// a multiple of 8.
func BitsToBytes(bits []uint8) []byte {
	if len(bits)%8 != 0 {
		panic("bitslice: bit count not a multiple of 8")
	}
	p := make([]byte, len(bits)/8)
	for i := range p {
		var b byte
		for j := 0; j < 8; j++ {
			b |= (bits[8*i+j] & 1) << uint(j)
		}
		p[i] = b
	}
	return p
}
