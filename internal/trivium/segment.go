package trivium

import (
	"encoding/binary"
	"math/bits"
)

// Segment writes the keystream of one (key, iv) instance into dst: the
// bytes NewRef(key, iv) and Keystream produce. It is the one-lane form
// of Sliced's per-lane output, for a caller that needs a single lane's
// segment and not a 64-lane pass. key and iv must have KeySize and
// IVSize bytes; Segment checks nothing and allocates nothing.
//
// It runs 64 clocks per word step. Each register is kept as the time
// series of the bits that entered it, 64 clocks to a word, earliest
// clock in the most significant bit: x1 holds the last 64 bits in, x2
// the 64 before them. State bit s_j of a register is the bit that
// entered it j clocks ago, and every tap lags at least 66 clocks, so
// the 64 tap values of the next 64 clocks are all already known: they
// are funnel-shifted out of x2 and x1 (lag, the register's j, at most
// 111 < 128). The 64 new bits of each register and the 64 output bits
// are then a few word operations, with the output word already in
// MSB-first byte order.
func Segment(key, iv, dst []byte) {
	// Loading: s_j of A is key bit j-1, which entered j clocks before
	// clock 0; the bit that entered 1 clock ago is x1's least
	// significant. So x1 is key bits 0..63 reversed and x2's low 16
	// bits key bits 64..79 reversed. B takes the IV the same way; C's
	// s_109..s_111 are ones, at x2 bits 44..46.
	a1 := bits.Reverse64(binary.BigEndian.Uint64(key))
	a2 := bits.Reverse64(uint64(binary.BigEndian.Uint16(key[8:])) << 48)
	b1 := bits.Reverse64(binary.BigEndian.Uint64(iv))
	b2 := bits.Reverse64(uint64(binary.BigEndian.Uint16(iv[8:])) << 48)
	c1, c2 := uint64(0), uint64(7)<<44

	// Word step k runs clocks 64k..64k+63. The first initClocks/64
	// steps are the discarded initialization, and step initClocks/64+w
	// makes output word w; a partial last word is the last z.
	var z uint64
	for k := range initClocks/64 + (len(dst)+7)/8 {
		t1 := tap(a2, a1, 66) ^ tap(a2, a1, 93)
		t2 := tap(b2, b1, 69) ^ tap(b2, b1, 84)
		t3 := tap(c2, c1, 66) ^ tap(c2, c1, 111)
		n1 := t1 ^ tap(a2, a1, 91)&tap(a2, a1, 92) ^ tap(b2, b1, 78)
		n2 := t2 ^ tap(b2, b1, 82)&tap(b2, b1, 83) ^ tap(c2, c1, 87)
		n3 := t3 ^ tap(c2, c1, 109)&tap(c2, c1, 110) ^ tap(a2, a1, 69)
		a2, a1 = a1, n3
		b2, b1 = b1, n1
		c2, c1 = c1, n2
		z = t1 ^ t2 ^ t3
		if o := 8 * (k - initClocks/64); o >= 0 && o+8 <= len(dst) {
			binary.BigEndian.PutUint64(dst[o:], z)
		}
	}
	if o := len(dst) &^ 7; o < len(dst) {
		var last [8]byte
		binary.BigEndian.PutUint64(last[:], z)
		copy(dst[o:], last[:])
	}
}

// tap returns the 64 values of state bit s_lag over the next 64 clocks,
// earliest first from the most significant bit: the bits that entered
// the register lag clocks before each of them (64 < lag < 128).
func tap(x2, x1 uint64, lag uint) uint64 {
	return x2<<(128-lag) | x1>>(lag-64)
}
