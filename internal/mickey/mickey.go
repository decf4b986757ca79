// Package mickey implements the MICKEY 2.0 stream cipher (Babbage & Dodd,
// eSTREAM Profile 2) in three forms:
//
//   - Ref: a specification-clarity implementation (one byte per state bit)
//     that transcribes CLOCK_R / CLOCK_S / CLOCK_KG directly.
//   - Packed: the conventional fast software form, 100-bit registers packed
//     into 4 uint32 words with shift-and-mask clocking — the paper's
//     "naive" row-major implementation (one instance per thread).
//   - Sliced: the bitsliced 64-lane engine of paper §4.4/Fig. 9 — 200
//     word-planes, one per state bit, with the irregular clocking folded
//     into branch-free per-lane masks and the clock step generated as
//     straight-line code from the tables below (clockkg_gen.go).
//
// Cipher constants: the R tap set RTAPS is transcribed from the
// specification and cross-checked against the packed masks of the eSTREAM
// reference implementation (they reconstruct each other exactly; see
// tables_test.go). The S-register COMP0/COMP1/FB0/FB1 tables are
// transcribed as the packed reference masks. Official known-answer vectors
// are not available offline; conformance is established structurally
// (reference ↔ packed ↔ bitsliced cross-validation) as recorded in
// DESIGN.md §2.
package mickey

// KeySize is the MICKEY 2.0 key length in bytes (80 bits).
const KeySize = 10

// MaxIVBits is the maximum initialization-vector length in bits.
const MaxIVBits = 80

// regBits is the length of each of the R and S registers.
const regBits = 100

// rtaps lists the feedback tap positions of register R (spec §3.1).
var rtaps = [...]int{
	0, 1, 3, 4, 5, 6, 9, 12, 13, 16, 19, 20, 21, 22, 25, 28,
	37, 38, 41, 42, 45, 46, 50, 52, 54, 56, 58, 60, 61, 63,
	64, 65, 66, 67, 71, 72, 79, 80, 81, 82, 87, 88, 89, 90,
	91, 92, 94, 95, 96, 97,
}

// Packed little-endian masks (bit i of the register lives in word i/32,
// bit i%32), as used by the eSTREAM reference code.
var (
	rMask  = [4]uint32{0x1279327B, 0xB5546660, 0xDF87818F, 0x00000003}
	comp0  = [4]uint32{0x6AA97A30, 0x7942A809, 0x057EBFEA, 0x00000006}
	comp1  = [4]uint32{0xDD629E9A, 0xE3A21D63, 0x91C23DD7, 0x00000001}
	sMask0 = [4]uint32{0x9FFA7FAF, 0xAF4A9381, 0x9CEC5802, 0x00000001}
	sMask1 = [4]uint32{0x4C8CB877, 0x4911B063, 0x40FBC52B, 0x00000008}
)

// maskBit reads bit i of a packed 100-bit mask.
func maskBit(m *[4]uint32, i int) uint8 {
	return uint8((m[i>>5] >> uint(i&31)) & 1)
}

// Ref is the specification-transparency implementation: every state bit is
// its own byte and the clocking routines follow the spec text line by
// line. It is the oracle for the two fast implementations.
type Ref struct {
	R, S [regBits]uint8
}

// NewRef returns a keyed MICKEY 2.0 instance. key must be KeySize bytes;
// iv may be 0 to MaxIVBits bits long (ivBits counts bits; the bits are
// taken MSB-first from ivBytes).
func NewRef(key []byte, iv []byte, ivBits int) (*Ref, error) {
	if err := checkKeyIV(key, iv, ivBits); err != nil {
		return nil, err
	}
	m := &Ref{}
	for i := 0; i < ivBits; i++ {
		m.ClockKG(true, ivBit(iv, i))
	}
	for i := 0; i < 8*KeySize; i++ {
		m.ClockKG(true, ivBit(key, i))
	}
	for i := 0; i < regBits; i++ {
		m.ClockKG(true, 0)
	}
	return m, nil
}

// ivBit extracts bit i of a byte string, MSB-first within each byte (the
// eSTREAM loading convention: bit 0 is the most significant bit of byte 0).
func ivBit(p []byte, i int) uint8 {
	return (p[i>>3] >> uint(7-i&7)) & 1
}

// clockR implements CLOCK_R from the specification.
func (m *Ref) clockR(inputBitR, controlBitR uint8) {
	feedback := m.R[99] ^ inputBitR
	var next [regBits]uint8
	for i := 1; i < regBits; i++ {
		next[i] = m.R[i-1]
	}
	next[0] = 0
	for _, t := range rtaps {
		next[t] ^= feedback
	}
	if controlBitR == 1 {
		for i := 0; i < regBits; i++ {
			next[i] ^= m.R[i]
		}
	}
	m.R = next
}

// clockS implements CLOCK_S from the specification.
func (m *Ref) clockS(inputBitS, controlBitS uint8) {
	feedback := m.S[99] ^ inputBitS
	var hat [regBits]uint8
	for i := 1; i < 99; i++ {
		hat[i] = m.S[i-1] ^ ((m.S[i] ^ maskBit(&comp0, i)) & (m.S[i+1] ^ maskBit(&comp1, i)))
	}
	hat[0] = 0
	hat[99] = m.S[98]
	fbMask := &sMask0
	if controlBitS == 1 {
		fbMask = &sMask1
	}
	for i := 0; i < regBits; i++ {
		m.S[i] = hat[i] ^ (maskBit(fbMask, i) & feedback)
	}
}

// ClockKG implements CLOCK_KG: one step of the whole keystream generator.
func (m *Ref) ClockKG(mixing bool, inputBit uint8) {
	controlBitR := m.S[34] ^ m.R[67]
	controlBitS := m.S[67] ^ m.R[33]
	inputBitR := inputBit
	if mixing {
		inputBitR ^= m.S[50]
	}
	inputBitS := inputBit
	m.clockR(inputBitR, controlBitR)
	m.clockS(inputBitS, controlBitS)
}

// KeystreamBit emits the next keystream bit (z = r0 ^ s0, generated before
// the register clock, per the spec).
func (m *Ref) KeystreamBit() uint8 {
	z := m.R[0] ^ m.S[0]
	m.ClockKG(false, 0)
	return z
}

// Keystream fills dst with keystream bytes, bits packed MSB-first.
func (m *Ref) Keystream(dst []byte) {
	for i := range dst {
		var b byte
		for j := 7; j >= 0; j-- {
			b |= m.KeystreamBit() << uint(j)
		}
		dst[i] = b
	}
}

func checkKeyIV(key, iv []byte, ivBits int) error {
	if len(key) != KeySize {
		return errKeySize
	}
	if ivBits < 0 || ivBits > MaxIVBits {
		return errIVSize
	}
	if len(iv)*8 < ivBits {
		return errIVShort
	}
	return nil
}

type mickeyError string

func (e mickeyError) Error() string { return string(e) }

const (
	errKeySize mickeyError = "mickey: key must be exactly 10 bytes"
	errIVSize  mickeyError = "mickey: iv length must be 0..80 bits"
	errIVShort mickeyError = "mickey: iv byte slice shorter than ivBits"
)
