// Package health implements continuous online health tests for the
// BSRNG byte stream, in the spirit of SP 800-90B §4.4 (Repetition Count
// Test, Adaptive Proportion Test) and the FIPS 140-2 power-up battery
// (monobit, long-run), evaluated per 2048-byte segment — the canonical
// stream unit of internal/core.
//
// These are NOT the offline SP 800-22 battery (internal/sp80022): an
// online test must run at line rate on every segment of a deployed
// generator and essentially never false-positive, so every cutoff below
// is set where the per-segment failure probability of healthy output is
// astronomically small (< 2^-45) while gross faults — a stuck engine
// lane, a zeroed or constant segment, a wedged LFSR — trip it on the
// very first bad segment. See DESIGN.md §8 for the cutoff derivations.
//
// Check runs in two tiers. A word-wise screen reads the segment as
// little-endian uint64 words and tests a necessary condition for each
// failure; a segment that meets none is healthy and is cleared without
// further work. Any other segment goes to the exact byte- and bit-level
// scan, which alone decides the verdict and builds the *Failure.
package health

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Test identifies one of the continuous tests.
type Test uint8

const (
	// RCT is the SP 800-90B Repetition Count Test: a run of identical
	// bytes at least RCTCutoff long fails the segment.
	RCT Test = iota
	// APT is the SP 800-90B Adaptive Proportion Test: within each
	// APTWindow-byte window, the window's first byte occurring at least
	// APTCutoff times fails the segment.
	APT
	// Monobit is the FIPS 140-2-style bias check: the segment's ones
	// count must stay within MonobitSlack of exactly half the bits.
	Monobit
	// LongRun is the FIPS 140-2-style long-run check: a run of identical
	// bits at least LongRunBits long fails the segment.
	LongRun

	numTests
)

// String names the test for error messages and metric labels.
func (t Test) String() string {
	switch t {
	case RCT:
		return "rct"
	case APT:
		return "apt"
	case Monobit:
		return "monobit"
	case LongRun:
		return "longrun"
	}
	return fmt.Sprintf("Test(%d)", uint8(t))
}

// Failure reports which test a segment failed and by how much.
type Failure struct {
	Test     Test
	Observed int // the statistic that tripped (run length, count, |bias|)
	Limit    int // the cutoff it violated
}

func (f *Failure) Error() string {
	return fmt.Sprintf("health: segment failed %s: observed %d, limit %d", f.Test, f.Observed, f.Limit)
}

// Config is empty: the cutoffs are the package constants below. It
// stays only as NewChecker's argument, which the benchmark module
// (bench/) passes.
type Config struct{}

// The cutoffs. Each is fixed where a healthy 2048-byte segment fails it
// with a probability below 2^-45, so none is a tuning value; DESIGN.md
// §8 derives them.
const (
	// RCTCutoff is the failing run length of identical bytes
	// (P ≈ 2^-45 per healthy segment).
	RCTCutoff = 8
	// APTWindow is the APT window size in bytes.
	APTWindow = 512
	// APTCutoff is the failing occurrence count of a window's first
	// byte: the binomial tail P(X ≥ 48 | n=512, p=1/256) is far below
	// 2^-100.
	APTCutoff = 48
	// MonobitSlack is the allowed |ones − bits/2|: ±16σ for a
	// 16384-bit segment, unreachable by chance, tripped instantly by a
	// zeroed or heavily biased segment.
	MonobitSlack = 1024
	// LongRunBits is the failing run length of identical bits: a whole
	// stuck output word (P ≈ 2^-50 per healthy segment).
	LongRunBits = 64
)

// Stats is a snapshot of a Checker's counters.
type Stats struct {
	// Segments counts segments checked.
	Segments uint64
	// Failures counts failed segments by test, indexed by Test.
	Failures [4]uint64
}

// Total sums the per-test failure counts.
func (s Stats) Total() uint64 {
	var t uint64
	for _, n := range s.Failures {
		t += n
	}
	return t
}

// Checker evaluates segments against the cutoffs. Check is
// stateless per segment (no state carries across calls), so a Checker
// is safe for concurrent use from many generator workers.
type Checker struct {
	segments atomic.Uint64
	failures [numTests]atomic.Uint64
}

// NewChecker builds a checker.
func NewChecker(Config) *Checker { return &Checker{} }

// Stats snapshots the counters; safe to call concurrently with Check.
func (c *Checker) Stats() Stats {
	var s Stats
	s.Segments = c.segments.Load()
	for i := range s.Failures {
		s.Failures[i] = c.failures[i].Load()
	}
	return s
}

// Check evaluates one segment. It returns nil for a healthy segment and
// a *Failure for the first test the segment trips (tests run in the
// order RCT, APT, Monobit, LongRun). A healthy segment costs one
// word-wise screening pass plus one word-wise APT pass; only a segment
// the screen cannot clear pays for the exact byte- and bit-level scan.
func (c *Checker) Check(seg []byte) error {
	c.segments.Add(1)
	if f := check(seg); f != nil {
		c.failures[f.Test].Add(1)
		return f
	}
	return nil
}

func check(seg []byte) *Failure {
	if screen(seg) {
		return nil
	}
	return scan(seg)
}

// SWAR (byte-parallel arithmetic inside a uint64) constants.
const (
	lowBytes  = 0x0101010101010101 // 0x01 in every byte
	low7Bits  = 0x7F7F7F7F7F7F7F7F // the low seven bits of every byte
	highBits  = 0x8080808080808080 // the high bit of every byte
	gatherMul = 0x0102040810204080 // moves bit 8k to bit 56+k
)

// zeroBytes sets bit 8k+7 of the result exactly when byte k of x is
// 0x00. Unlike the borrow-based (x-0x01…)&^x trick it has no false
// positives: no carry crosses a byte boundary.
func zeroBytes(x uint64) uint64 {
	return ^((x&low7Bits + low7Bits) | x | low7Bits)
}

// uniformBytes sets bit 8k+7 of the result exactly when byte k of w is
// 0x00 or 0xFF: XORing each bit with its upper neighbour leaves the low
// seven bits of a byte all zero only when its eight bits agree.
func uniformBytes(w uint64) uint64 {
	return ^((w^w>>1)&low7Bits + low7Bits) & highBits
}

// gather packs the per-byte flags of h (bit 8k+7 for byte k) into bits
// 0..7.
func gather(h uint64) uint8 {
	return uint8((h >> 7) * gatherMul >> 56)
}

// runs8 carries a run of flagged bytes across one word: run is the run
// open at the previous word's last byte and g holds this word's eight
// byte flags (bit k for byte k). It returns the run still open at byte
// 7 and the longest run that reaches into this word.
func runs8(g uint8, run int) (open, longest int) {
	if g == 0xFF {
		return run + 8, run + 8
	}
	longest = run + bits.TrailingZeros8(^g)
	n := 0 // the longest run inside g: each step shortens every run by one
	for x := g; x != 0; x &= x << 1 {
		n++
	}
	return bits.LeadingZeros8(^g), max(longest, n)
}

// The screen's run limits (see screen).
const (
	eqLimit    = RCTCutoff - 1         // adjacent-equal bytes in a failing byte run
	wholeLimit = (LongRunBits - 7) / 8 // whole 0x00/0xFF bytes in a failing bit run
)

// byteRuns holds the runs the screen tracks across words, each the run
// still open at the last byte screened: adjacent-equal bytes, 0x00
// bytes and 0xFF bytes.
type byteRuns struct{ eq, zero, full int }

// step extends the runs through word w, whose adjacent-equal flags are
// eq and whose existing bytes are flagged in valid, and reports whether
// a run reached its limit.
func (r *byteRuns) step(w, eq, valid uint64) bool {
	var longest int
	if r.eq, longest = runs8(gather(eq), r.eq); longest >= eqLimit {
		return true
	}
	if r.zero, longest = runs8(gather(zeroBytes(w)&valid), r.zero); longest >= wholeLimit {
		return true
	}
	r.full, longest = runs8(gather(zeroBytes(^w)&valid), r.full)
	return longest >= wholeLimit
}

// screen reports whether seg is certainly healthy: true means the exact
// scan would return nil. Each test has a necessary condition that every
// segment failing it meets, so the screen never clears a failing one:
//
//   - RCT: a run of RCTCutoff identical bytes is RCTCutoff−1
//     consecutive adjacent-equal bytes (exact).
//   - LongRun: a run of L identical bits, wherever it starts in a byte,
//     covers ⌊(L−7)/8⌋ consecutive whole 0x00 or 0xFF bytes.
//   - Monobit: the ones count is exact.
//   - APT: each window's count of its first byte is exact (aptClear).
func screen(seg []byte) bool {
	n := len(seg)
	if n == 0 {
		return true
	}
	var runs byteRuns
	ones, rest := 0, seg
	for ; len(rest) > 8; rest = rest[8:] {
		w := binary.LittleEndian.Uint64(rest)
		ones += bits.OnesCount64(w)
		eq := zeroBytes(w ^ binary.LittleEndian.Uint64(rest[1:]))
		if eq|uniformBytes(w) == 0 {
			runs = byteRuns{} // nothing flagged: every run is closed
		} else if runs.step(w, eq, highBits) {
			return false
		}
	}
	// The last one to eight bytes, zero-padded: flag only the bytes that
	// exist and, for eq, the ones with a successor.
	var w uint64
	for k, b := range rest {
		w |= uint64(b) << (8 * k)
	}
	ones += bits.OnesCount64(w)
	valid := uint64(highBits) >> (8 * (8 - len(rest)))
	if runs.step(w, zeroBytes(w^w>>8)&(valid>>8), valid) {
		return false
	}
	bias := ones - n*4
	if bias < 0 {
		bias = -bias
	}
	if bias > MonobitSlack {
		return false
	}
	return aptClear(seg)
}

// aptClear reports whether every APT window's count of its first byte
// stays below APTCutoff. It counts eight bytes at a time: the window
// byte is broadcast to every byte lane, and the matches are the zero
// bytes of the XOR.
func aptClear(seg []byte) bool {
	n := len(seg)
	for s := 0; s < n; s += APTWindow {
		rest := seg[s:min(s+APTWindow, n)]
		first := rest[0]
		target := uint64(first) * lowBytes
		count := 0
		for ; len(rest) >= 8; rest = rest[8:] {
			count += bits.OnesCount64(zeroBytes(binary.LittleEndian.Uint64(rest) ^ target))
		}
		for _, b := range rest {
			if b == first {
				count++
			}
		}
		if count >= APTCutoff {
			return false
		}
	}
	return true
}

// scan is the exact byte- and bit-level scan: it decides every segment
// the screen does not clear and builds the *Failure.
func scan(seg []byte) *Failure {
	if len(seg) == 0 {
		return nil
	}
	// RCT + APT share the byte pass.
	run := 1
	prev := seg[0]
	winStart := 0
	winByte := seg[0]
	winCount := 0
	for i, b := range seg {
		if i > 0 {
			if b == prev {
				run++
				if run >= RCTCutoff {
					return &Failure{Test: RCT, Observed: run, Limit: RCTCutoff}
				}
			} else {
				run = 1
				prev = b
			}
		}
		if i-winStart == APTWindow {
			winStart = i
			winByte = b
			winCount = 0
		}
		if b == winByte {
			winCount++
			if winCount >= APTCutoff {
				return &Failure{Test: APT, Observed: winCount, Limit: APTCutoff}
			}
		}
	}

	// Monobit: word-wise popcount.
	ones := 0
	i := 0
	for ; i+8 <= len(seg); i += 8 {
		w := uint64(seg[i]) | uint64(seg[i+1])<<8 | uint64(seg[i+2])<<16 | uint64(seg[i+3])<<24 |
			uint64(seg[i+4])<<32 | uint64(seg[i+5])<<40 | uint64(seg[i+6])<<48 | uint64(seg[i+7])<<56
		ones += bits.OnesCount64(w)
	}
	for ; i < len(seg); i++ {
		ones += bits.OnesCount8(seg[i])
	}
	half := len(seg) * 8 / 2
	bias := ones - half
	if bias < 0 {
		bias = -bias
	}
	if bias > MonobitSlack {
		return &Failure{Test: Monobit, Observed: bias, Limit: MonobitSlack}
	}

	// LongRun: longest run of identical bits. Whole 0x00/0xFF bytes
	// extend runs eight bits at a time; mixed bytes are scanned bitwise
	// (LSB-first, matching the engines' byte packing). A run open at a
	// byte's end reaches LongRunBits only across RCTCutoff identical
	// whole bytes, which RCT has already failed, so the longest run is
	// compared once, at the end.
	longest, cur := 0, 0
	curBit := uint8(2) // sentinel: no run yet
	for _, b := range seg {
		switch {
		case b == 0x00 && curBit == 0:
			cur += 8
		case b == 0xFF && curBit == 1:
			cur += 8
		default:
			for k := 0; k < 8; k++ {
				bit := (b >> k) & 1
				if bit == curBit {
					cur++
				} else {
					if cur > longest {
						longest = cur
					}
					curBit = bit
					cur = 1
				}
			}
		}
	}
	longest = max(longest, cur)
	if longest >= LongRunBits {
		return &Failure{Test: LongRun, Observed: longest, Limit: LongRunBits}
	}
	return nil
}
