package aes

import "repro/internal/bitslice"

// HasAESNI reports whether this CPU runs ctrBlocksAESNI: AES-NI
// (CPUID.1:ECX bit 25) and SSE4.1 (bit 19, for PINSRQ). It is read
// once, at start-up.
var HasAESNI = aesniSupported()

func aesniSupported() bool {
	_, _, ecx, _ := bitslice.CPUID(1, 0)
	return ecx&(1<<25) != 0 && ecx&(1<<19) != 0
}

// ctrBlocksAESNI encrypts n > 0 counter blocks into dst (16n bytes):
// block i is nonce‖BE(ctr+i) under the 11 round keys rk. Only call it
// when HasAESNI.
//
//go:noescape
func ctrBlocksAESNI(rk *[11][16]byte, nonce, ctr uint64, dst *byte, n int)
