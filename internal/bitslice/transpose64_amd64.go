package bitslice

// hasVec reports whether this CPU and OS run transpose64Vec: AVX-512
// Foundation, AVX-512 VBMI (VPERMB) and GFNI (VGF2P8AFFINEQB), with the
// OS saving the opmask and full ZMM state. It is read once, at start-up.
var hasVec = vecSupported()

// vecSupported is the vector kernel's gate: CPUID leaf 7 for the
// instruction sets, leaf 1 for OSXSAVE, and XCR0 bits 1, 2 and 5..7 (SSE,
// AVX, opmask, ZMM0..15 upper halves, ZMM16..31) for the OS state.
func vecSupported() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	if _, _, ecx1, _ := cpuid(1, 0); ecx1&(1<<27) == 0 {
		return false
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	avx512f := ebx7&(1<<16) != 0
	vbmi := ecx7&(1<<1) != 0
	gfni := ecx7&(1<<8) != 0
	if !avx512f || !vbmi || !gfni {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&0xE6 == 0xE6
}

// transpose64Vec is Transpose64 in AVX-512 VBMI + GFNI (generated into
// transpose64_amd64.s by genTranspose64Vec). Only call it when hasVec.
//
//go:noescape
func transpose64Vec(a *[64]uint64)

// cpuid executes CPUID with EAX = eaxArg and ECX = ecxArg.
//
//go:noescape
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0). Only call it when
// CPUID reports OSXSAVE.
//
//go:noescape
func xgetbv() (eax, edx uint32)

// CPUID executes CPUID with EAX = eaxArg and ECX = ecxArg. It is the
// stub behind the start-up gates of the repository's other assembly
// kernels (internal/aes's AES-NI CTR kernel).
func CPUID(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32) { return cpuid(eaxArg, ecxArg) }
