// Package core is the BSRNG engine: the public face of this repository's
// reproduction of the paper's bitsliced PRNG system. It wires the
// bitsliced cipher engines (MICKEY 2.0, Grain v1, AES-128-CTR) into
// byte-stream generators, expands a single user seed into decorrelated
// per-lane keys and IVs (the paper's "non-linear expansion of a pre-stored
// random set", §4.4), and scales across cores with the worker-pool Stream
// that mirrors the paper's thread blocks and shared-memory staging (§4.5).
package core

// splitMix64 is the seed-expansion PRF: a full-period 64-bit permutation
// sequence with strong avalanche, used to derive per-lane key/IV material
// from one user seed. (This substitutes the paper's pre-stored random
// set; see DESIGN.md §2.)
type splitMix64 struct{ s uint64 }

func (s *splitMix64) next() uint64 {
	s.s += 0x9E3779B97F4A7C15
	z := s.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fill derives len(dst) pseudo-random bytes from the expander without
// allocating.
func (s *splitMix64) fill(dst []byte) {
	for i := 0; i < len(dst); i += 8 {
		v := s.next()
		for j := 0; j < 8 && i+j < len(dst); j++ {
			dst[i+j] = byte(v >> uint(8*j))
		}
	}
}

// segmentMaterial derives key and IV byte strings for the `lanes`
// consecutive stream segments starting at absolute index base: lane l
// receives the material of segment base+l. domain separates independent
// engines (e.g. workers of a Stream) drawing from the same user seed.
//
// Each segment's material depends only on (seed, domain, base+l, epoch)
// — never on the lane count or on which pass computes it — which is what
// makes the canonical byte stream identical however its segments are
// grouped into 64-lane passes.
//
// epoch is the reseed generation and is 0 for the canonical stream; a
// continuous health test that condemns a segment bumps the engine's
// epoch so the regenerated segments draw fresh, unrelated material (a
// deterministic engine fault would otherwise reproduce the same bad
// bytes forever).
func segmentMaterial(seed, domain, base, epoch uint64, lanes, keyLen, ivLen int) (keys, ivs [][]byte) {
	m := newLaneMaterial(lanes, keyLen, ivLen)
	m.derive(seed, domain, base, epoch)
	return m.keys, m.ivs
}

// laneMaterial is the reusable key/IV scratch of one engine: a single
// flat backing array resliced into per-lane key and IV strings, so the
// lock-step rekey at every segment-pass boundary derives fresh material
// with zero allocations. Its shape — passLanes strings of keyLen and
// ivLen bytes — is fixed when newCipher sizes it, and the engine's
// constructor checks that shape once; every later Rekey reads the same
// strings unchecked. Engines copy the material into their own state
// during Rekey and never retain the slices, which is what makes the
// reuse across rekeys safe.
type laneMaterial struct {
	keys, ivs     [][]byte
	keyLen, ivLen int
}

func newLaneMaterial(lanes, keyLen, ivLen int) *laneMaterial {
	m := &laneMaterial{
		keys:   make([][]byte, lanes),
		ivs:    make([][]byte, lanes),
		keyLen: keyLen,
		ivLen:  ivLen,
	}
	backing := make([]byte, lanes*(keyLen+ivLen))
	for l := 0; l < lanes; l++ {
		o := l * (keyLen + ivLen)
		m.keys[l] = backing[o : o+keyLen]
		m.ivs[l] = backing[o+keyLen : o+keyLen+ivLen]
	}
	return m
}

// chaoticSeedTweak domain-separates the chaotic-mode x_0 schedule from
// the inner engine's key/IV material: the same (seed, domain, segment,
// epoch) tuple must never feed both, or the post-processing orbit would
// be correlated with the keystream it perturbs.
const chaoticSeedTweak = 0x6A09E667F3BCC908 // frac(sqrt(2)), SHA-512 IV word

// deriveChaoticX0s fills x0s with the chaotic-mode initial words of
// segments base..base+len(x0s)-1.
func deriveChaoticX0s(x0s []uint64, seed, domain, base, epoch uint64) {
	for l := range x0s {
		x0s[l] = chaoticX0(seed, domain, base+uint64(l), epoch)
	}
}

// chaoticX0 is the chaotic-mode initial word of segment seg. Like the
// key/IV material, it depends only on (seed, domain, seg, epoch) — never
// the lane count — so chaotic modes keep the canonical-stream property.
func chaoticX0(seed, domain, seg, epoch uint64) uint64 {
	sm := splitMix64{s: seed ^ chaoticSeedTweak ^ 0xA5A5A5A55A5A5A5A*domain ^ 0xD1342543DE82EF95*seg ^ 0x8CB92BA72F3D8DD7*epoch}
	sm.next()
	return sm.next()
}

// derive overwrites the scratch with the material of segments
// base..base+lanes-1 — the same bytes segmentMaterial returns for the
// same arguments.
func (m *laneMaterial) derive(seed, domain, base, epoch uint64) {
	for l := range m.keys {
		m.deriveLane(l, seed, domain, base+uint64(l), epoch)
	}
}

// deriveLane overwrites lane l's key and IV with the material of segment
// seg of (seed, domain): the one definition of the per-segment PRF.
func (m *laneMaterial) deriveLane(l int, seed, domain, seg, epoch uint64) {
	sm := splitMix64{s: seed ^ 0xA5A5A5A55A5A5A5A*domain ^ 0xD1342543DE82EF95*seg ^ 0x8CB92BA72F3D8DD7*epoch}
	// One warm-up draw decorrelates small seed/domain/segment tuples.
	sm.next()
	sm.fill(m.keys[l])
	sm.fill(m.ivs[l])
}
