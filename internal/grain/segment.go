package grain

import "encoding/binary"

// Segment writes the keystream of one (key, iv) instance into dst: the
// bytes NewRef(key, iv) and Keystream produce. It is the one-lane form
// of Sliced's per-lane output, for a caller that needs a single lane's
// segment and not a 64-lane pass. key and iv must have KeySize and
// IVSize bytes; Segment checks nothing and allocates nothing.
//
// It runs 16 clocks per word step. No tap is nearer than 16 clocks to
// the bit being written (the output tap s64 lags 16, the NFSR tap b63
// lags 17), so each tap's next 16 values are already in the registers.
// Each register's 80 state bits are kept in two overlapping windows,
// MSB first: lo holds bits 0..63 and hi bits 32..79 in its top 48 bits
// (its low 16 bits are zero). Tap j's next 16 values are then the top
// 16 bits of one shift, lo<<j or hi<<(j-32); the low 48 bits of every
// step word are garbage and are never kept. The output word's top 16
// bits are two keystream bytes in MSB-first byte order.
func Segment(key, iv, dst []byte) {
	bLo := binary.BigEndian.Uint64(key)
	bHi := uint64(binary.BigEndian.Uint32(key[4:]))<<32 | uint64(binary.BigEndian.Uint16(key[8:]))<<16
	sLo := binary.BigEndian.Uint64(iv)
	sHi := uint64(binary.BigEndian.Uint32(iv[4:]))<<32 | 0xFFFF<<16

	// Step k runs clocks 16k..16k+15. The first initClocks/16 steps are
	// the initialization, which feeds z back into both registers; step
	// initClocks/16+w makes output bytes 2w and 2w+1.
	const top = 0xFFFF << 48
	var fb uint64 // z during the initialization, 0 after it
	for k := range initClocks/16 + (len(dst)+1)/2 {
		s3, s13, s23 := sLo<<3, sLo<<13, sLo<<23
		s25, s38, s46 := sLo<<25, sLo<<38, sHi<<14
		s51, s62, s64 := sHi<<19, sHi<<30, sHi<<32
		b1, b2, b4, b9, b10 := bLo<<1, bLo<<2, bLo<<4, bLo<<9, bLo<<10
		b14, b15, b21, b28, b31 := bLo<<14, bLo<<15, bLo<<21, bLo<<28, bLo<<31
		b33, b37, b43, b45 := bLo<<33, bLo<<37, bLo<<43, bLo<<45
		b52, b56, b60, b62, b63 := bHi<<20, bHi<<24, bHi<<28, bHi<<30, bHi<<31

		s3s64 := s3 & s64
		s46s64 := s46 & s64
		z := b1 ^ b2 ^ b4 ^ b10 ^ b31 ^ b43 ^ b56 ^
			s25 ^ b63 ^ s3s64 ^ s46s64 ^ s64&b63 ^
			s3&s25&s46 ^ s3s64&s46 ^ s3&s46&b63 ^ s25&s46&b63 ^ s46s64&b63
		if k < initClocks/16 {
			fb = z
		} else {
			fb = 0
			if o := 2 * (k - initClocks/16); o+2 <= len(dst) {
				binary.BigEndian.PutUint16(dst[o:], uint16(z>>48))
			} else {
				dst[o] = byte(z >> 56)
			}
		}

		ns := s62 ^ s51 ^ s38 ^ s23 ^ s13 ^ sLo ^ fb
		b6360, b3733, b5245, b2821 := b63&b60, b37&b33, b52&b45, b28&b21
		nb := sLo ^ fb ^ b62 ^ b60 ^ b52 ^ b45 ^ b37 ^ b33 ^ b28 ^ b21 ^ b14 ^ b9 ^ bLo ^
			b6360 ^ b3733 ^ b15&b9 ^ b60&b5245 ^ b33&b2821 ^
			b63&b45&b28&b9 ^ b60&b52&b3733 ^ b6360&b21&b15 ^
			b6360&b5245&b37 ^ b33&b2821&b15&b9 ^ b5245&b3733&b2821

		// Shift both registers 16 clocks: lo takes hi's bits 64..79,
		// and hi takes the 16 new bits as its bits 80..95.
		sLo, sHi = sLo<<16|sHi>>16&0xFFFF, sHi<<16|ns&top>>32
		bLo, bHi = bLo<<16|bHi>>16&0xFFFF, bHi<<16|nb&top>>32
	}
}
