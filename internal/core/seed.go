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

// laneMaterial is the reusable key/IV scratch of one engine: a single
// flat backing array resliced into per-lane key and IV strings, so the
// lock-step rekey at every segment-pass boundary derives fresh material
// with zero allocations. Its shape — passLanes strings of keyLen and
// ivLen bytes — is fixed when newPassRunner sizes it, and the engine's
// constructor checks that shape once; every later Rekey reads the same
// strings unchecked. Engines copy the material into their own state
// during Rekey and never retain the slices, which is what makes the
// reuse across rekeys safe.
type laneMaterial struct {
	keys, ivs [][]byte
}

func newLaneMaterial(keyLen, ivLen int) *laneMaterial {
	m := &laneMaterial{keys: make([][]byte, passLanes), ivs: make([][]byte, passLanes)}
	backing := make([]byte, passLanes*(keyLen+ivLen))
	for l := range passLanes {
		o := l * (keyLen + ivLen)
		m.keys[l] = backing[o : o+keyLen]
		m.ivs[l] = backing[o+keyLen : o+keyLen+ivLen]
	}
	return m
}

// chaoticSeedTweak domain-separates the chaotic-mode x_0 schedule from
// the inner engine's key/IV material: the same (seed, domain, segment)
// tuple must never feed both, or the post-processing orbit would be
// correlated with the keystream it perturbs.
const chaoticSeedTweak = 0x6A09E667F3BCC908 // frac(sqrt(2)), SHA-512 IV word

// chaoticX0 is the chaotic-mode initial word of segment seg. Like the
// key/IV material, it depends only on (seed, domain, seg) — never the
// lane count or the pass that computes it — so chaotic modes keep the
// canonical-stream property.
func chaoticX0(seed, domain, seg uint64) uint64 {
	sm := splitMix64{s: seed ^ chaoticSeedTweak ^ 0xA5A5A5A55A5A5A5A*domain ^ 0xD1342543DE82EF95*seg}
	sm.next()
	return sm.next()
}

// deriveLane overwrites lane l's key and IV with the material of segment
// seg of (seed, domain): the one definition of the per-segment PRF. It
// depends only on (seed, domain, seg) — never on the lane count or on
// which pass computes it — which is what makes the canonical byte
// stream identical however its segments are grouped into 64-lane passes.
func (m *laneMaterial) deriveLane(l int, seed, domain, seg uint64) {
	sm := splitMix64{s: seed ^ 0xA5A5A5A55A5A5A5A*domain ^ 0xD1342543DE82EF95*seg}
	// One warm-up draw decorrelates small seed/domain/segment tuples.
	sm.next()
	sm.fill(m.keys[l])
	sm.fill(m.ivs[l])
}
