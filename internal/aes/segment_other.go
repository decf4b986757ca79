//go:build !amd64

package aes

// HasAESNI is false off amd64: Segment runs the scalar cipher.
const HasAESNI = false

// ctrBlocksAESNI is unreachable off amd64 (HasAESNI is false); it
// exists so that ctrBlocks has one body for every architecture.
func ctrBlocksAESNI(rk *[11][16]byte, nonce, ctr uint64, dst *byte, n int) {
	panic("aes: the AES-NI kernel is amd64 only")
}
