package health

import (
	"errors"
	"testing"
)

// sameVerdict fails the test unless Check and the exact scan agree on
// seg: both nil, or equal Failure values.
func sameVerdict(t *testing.T, seg []byte) {
	t.Helper()
	got, want := check(seg), scan(seg)
	if (got == nil) != (want == nil) || (got != nil && *got != *want) {
		t.Fatalf("check = %v, exact scan = %v", got, want)
	}
}

// wantVerdict runs Check on seg and wants a Failure of test tst, or nil
// when pass is set; Check must also agree with the exact scan.
func wantVerdict(t *testing.T, c *Checker, seg []byte, pass bool, tst Test) {
	t.Helper()
	sameVerdict(t, seg)
	err := c.Check(seg)
	var f *Failure
	switch {
	case pass && err != nil:
		t.Fatalf("got %v, want pass", err)
	case !pass && (!errors.As(err, &f) || f.Test != tst):
		t.Fatalf("got %v, want %s failure", err, tst)
	}
}

// setByteRun writes n copies of v at seg[at:] and makes both neighbours
// differ from v, so the byte run is exactly n long.
func setByteRun(seg []byte, at, n int, v byte) {
	for i := at; i < at+n; i++ {
		seg[i] = v
	}
	seg[at-1] = v ^ 0x81
	seg[at+n] = v ^ 0x42
}

// setBitRun writes n copies of bit v at bit offset at (LSB-first, the
// engines' packing) and the opposite bit on both sides, so the bit run
// is exactly n long.
func setBitRun(seg []byte, at, n int, v byte) {
	put := func(p int, b byte) {
		seg[p/8] = seg[p/8]&^(1<<(p%8)) | b<<(p%8)
	}
	for p := at; p < at+n; p++ {
		put(p, v)
	}
	put(at-1, v^1)
	put(at+n, v^1)
}

// TestScreenRCTBoundary puts a run of exactly RCTCutoff−1 identical
// bytes (which passes) and of RCTCutoff bytes (which fails RCT) at every
// start offset mod 8, so the run crosses byte and word edges everywhere.
func TestScreenRCTBoundary(t *testing.T) {
	c := NewChecker(Config{})
	for off := 0; off < 8; off++ {
		for _, n := range []int{RCTCutoff - 1, RCTCutoff} {
			seg := randSegment(int64(10 + off))
			setByteRun(seg, 1000+off, n, 0x5A)
			wantVerdict(t, c, seg, n < RCTCutoff, RCT)
		}
	}
}

// TestScreenLongRunBoundary puts a run of exactly LongRunBits−1
// identical bits (which passes) and of LongRunBits bits at every bit
// offset across a word, for both bit values. The full run fails
// LongRun, except where it starts on a byte edge: there it is also
// RCTCutoff identical whole bytes, and RCT runs first.
func TestScreenLongRunBoundary(t *testing.T) {
	c := NewChecker(Config{})
	for off := 0; off < 64; off++ {
		want := LongRun
		if off%8 == 0 {
			want = RCT
		}
		for _, v := range []byte{0, 1} {
			for _, n := range []int{LongRunBits - 1, LongRunBits} {
				seg := randSegment(int64(20 + off))
				// Break up any other run as long as the injected one.
				for i := range seg {
					if seg[i] == 0x00 || seg[i] == 0xFF {
						seg[i] = 0x5A
					}
				}
				setBitRun(seg, 8*1000+off, n, v)
				wantVerdict(t, c, seg, n < LongRunBits, want)
			}
		}
	}
}

// TestScreenAPTBoundary puts APTCutoff−1 (passes) and APTCutoff (fails
// APT) copies of the window's first byte into a partial last window
// whose length takes every value mod 8, so the word-wise count ends on
// every tail length.
func TestScreenAPTBoundary(t *testing.T) {
	c := NewChecker(Config{})
	last := 3 * APTWindow
	for off := 0; off < 8; off++ {
		for _, count := range []int{APTCutoff - 1, APTCutoff} {
			seg := randSegment(int64(30 + off))[:last+200+off]
			first := seg[last]
			if seg[last-1] == first {
				seg[last-1] = first ^ 0x81
			}
			// Copies on even steps from the window start; every other
			// byte of the window differs from first and its predecessor.
			for i, k := last, 0; i < len(seg); i++ {
				if (i-last)%2 == 0 && k < count {
					seg[i], k = first, k+1
					continue
				}
				for seg[i] == first || seg[i] == seg[i-1] {
					seg[i] += 0x3B
				}
			}
			wantVerdict(t, c, seg, count < APTCutoff, APT)
		}
	}
}

// TestScreenEdgeLengths covers the segment tails that are not whole
// words and segments shorter than one APT window: Check must agree with
// the exact scan throughout.
func TestScreenEdgeLengths(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 511, 513, 2047, 2048} {
		for seed := int64(0); seed < 4; seed++ {
			sameVerdict(t, randSegment(40 + seed)[:n])
		}
		sameVerdict(t, make([]byte, n))
	}
}

// TestScreenClearsHealthySegments pins the fast path: the screen alone must clear healthy segments, or Check would
// silently fall back to the exact scan on every call.
func TestScreenClearsHealthySegments(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		if !screen(randSegment(seed)) {
			t.Fatalf("screen did not clear healthy segment (seed %d)", seed)
		}
	}
}

// TestCheckAllocationFree pins the line-rate path at runtime: clearing
// a healthy segment allocates nothing.
func TestCheckAllocationFree(t *testing.T) {
	c := NewChecker(Config{})
	seg := randSegment(9)
	if n := testing.AllocsPerRun(100, func() {
		if err := c.Check(seg); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Check allocates %.1f times per healthy segment", n)
	}
}
