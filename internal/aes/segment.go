package aes

import "encoding/binary"

// Segment writes the CTR keystream of one lane into dst: the bytes
// NewCTR(key, nonce) reads, from counter zero. It is the one-lane form
// of SlicedCTR's per-lane output, for a caller that needs a single
// lane's segment and not a 64-lane pass. key is 16 bytes and nonce 8;
// Segment checks nothing and allocates nothing. Where the CPU has
// AES-NI (HasAESNI) the blocks run through the hardware kernel, and
// elsewhere through the scalar cipher.
func Segment(key, nonce, dst []byte) {
	var rk [11][16]byte
	expandKey128(key, &rk)
	n := binary.LittleEndian.Uint64(nonce)
	whole := len(dst) &^ (BlockSize - 1)
	ctrBlocks(&rk, n, 0, dst[:whole])
	if whole < len(dst) {
		var last [BlockSize]byte
		ctrBlocks(&rk, n, uint64(whole/BlockSize), last[:])
		copy(dst[whole:], last[:])
	}
}

// ctrBlocks encrypts the blocks nonce‖BE(ctr), nonce‖BE(ctr+1), … into
// dst, whose length is a multiple of BlockSize.
func ctrBlocks(rk *[11][16]byte, nonce, ctr uint64, dst []byte) {
	if len(dst) == 0 {
		return
	}
	if HasAESNI {
		ctrBlocksAESNI(rk, nonce, ctr, &dst[0], len(dst)/BlockSize)
		return
	}
	ctrBlocksGeneric(rk, nonce, ctr, dst)
}

// ctrBlocksGeneric is ctrBlocks on the scalar cipher.
func ctrBlocksGeneric(rk *[11][16]byte, nonce, ctr uint64, dst []byte) {
	c := Cipher{rounds: 10, rk: rk[:]}
	var in [BlockSize]byte
	binary.LittleEndian.PutUint64(in[:8], nonce)
	for o := 0; o < len(dst); o += BlockSize {
		binary.BigEndian.PutUint64(in[8:], ctr)
		ctr++
		c.Encrypt(dst[o:], in[:])
	}
}
