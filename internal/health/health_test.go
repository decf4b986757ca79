package health

import (
	"errors"
	"math/bits"
	"math/rand"
	"strings"
	"testing"
)

// randSegment fills a 2048-byte segment from a seeded PRNG — good
// enough to pass every online cutoff (they sit ≥ 16σ out).
func randSegment(seed int64) []byte {
	seg := make([]byte, 2048)
	r := rand.New(rand.NewSource(seed))
	r.Read(seg)
	return seg
}

func TestHealthySegmentsPass(t *testing.T) {
	c := NewChecker(Config{})
	for seed := int64(0); seed < 200; seed++ {
		if err := c.Check(randSegment(seed)); err != nil {
			t.Fatalf("healthy segment (seed %d) failed: %v", seed, err)
		}
	}
	st := c.Stats()
	if st.Segments != 200 || st.Total() != 0 {
		t.Fatalf("stats %+v, want 200 segments, 0 failures", st)
	}
}

func TestRCTCatchesStuckByteRun(t *testing.T) {
	seg := randSegment(1)
	for i := 100; i < 108; i++ { // run of 8 identical bytes
		seg[i] = 0x5A
	}
	err := NewChecker(Config{}).Check(seg)
	var f *Failure
	if !errors.As(err, &f) || f.Test != RCT {
		t.Fatalf("got %v, want RCT failure", err)
	}
	if f.Observed < f.Limit {
		t.Fatalf("observed %d below limit %d", f.Observed, f.Limit)
	}
	// One byte short of the cutoff must pass RCT.
	seg2 := randSegment(2)
	for i := 100; i < 107; i++ {
		seg2[i] = 0x5A
	}
	// Neighbors must differ so the run is exactly 7.
	seg2[99], seg2[107] = 0x01, 0x02
	if err := NewChecker(Config{}).Check(seg2); err != nil {
		t.Fatalf("run of 7 tripped a test: %v", err)
	}
}

func TestAPTCatchesBiasedWindow(t *testing.T) {
	seg := randSegment(3)
	// Scatter 48 copies of the first window byte through window 0
	// without creating byte runs.
	b := seg[0]
	for k := 0; k < 48; k++ {
		seg[k*2] = b
		if seg[k*2+1] == b {
			seg[k*2+1] = b ^ 0xFF
		}
	}
	err := NewChecker(Config{}).Check(seg)
	var f *Failure
	if !errors.As(err, &f) || f.Test != APT {
		t.Fatalf("got %v, want APT failure", err)
	}
}

// pop2Segment cycles through the 28 bytes with exactly two bits set: a
// quarter of the bits are ones, far past MonobitSlack, yet no two
// adjacent bytes are equal, no window's first byte recurs more than 19
// times and no bit run spans two bytes' worth of bits, so Monobit is the
// only test it fails.
func pop2Segment() []byte {
	var pop2 []byte
	for b := 0; b < 256; b++ {
		if bits.OnesCount8(uint8(b)) == 2 {
			pop2 = append(pop2, byte(b))
		}
	}
	seg := make([]byte, 2048)
	for i := range seg {
		seg[i] = pop2[i%len(pop2)]
	}
	return seg
}

func TestMonobitCatchesBias(t *testing.T) {
	// Clearing the top two bits of every byte removes ~2048 one-bits,
	// twice the slack, and leaves 64 byte values: too many for a byte
	// run or an APT count to come near its cutoff.
	seg := randSegment(4)
	for i := range seg {
		seg[i] &= 0x3F
	}
	err := NewChecker(Config{}).Check(seg)
	var f *Failure
	if !errors.As(err, &f) || f.Test != Monobit {
		t.Fatalf("got %v, want Monobit failure", err)
	}
}

func TestMonobitAlone(t *testing.T) {
	err := NewChecker(Config{}).Check(pop2Segment())
	var f *Failure
	if !errors.As(err, &f) || f.Test != Monobit {
		t.Fatalf("got %v, want Monobit failure", err)
	}
}

func TestLongRunCatchesStuckBits(t *testing.T) {
	// 64 one-bits in a row from bit 3 of a byte: only 7 whole 0xFF
	// bytes, one short of the RCT cutoff, so the bit test is what fires.
	seg := randSegment(5)
	for p := 8*500 + 3; p < 8*500+3+64; p++ {
		seg[p/8] |= 1 << (p % 8)
	}
	seg[500] &^= 1 << 2 // the bits on either side differ, so the run is exactly 64
	seg[508] &^= 1 << 3
	err := NewChecker(Config{}).Check(seg)
	var f *Failure
	if !errors.As(err, &f) || f.Test != LongRun {
		t.Fatalf("got %v, want LongRun failure", err)
	}
	if f.Observed < 64 {
		t.Fatalf("observed run %d < 64", f.Observed)
	}
}

func TestZeroSegmentFails(t *testing.T) {
	err := NewChecker(Config{}).Check(make([]byte, 2048))
	if err == nil {
		t.Fatal("all-zero segment passed")
	}
}

func TestEmptySegmentPasses(t *testing.T) {
	if err := NewChecker(Config{}).Check(nil); err != nil {
		t.Fatalf("empty segment failed: %v", err)
	}
}

func TestStatsCountPerTest(t *testing.T) {
	c := NewChecker(Config{})
	c.Check(randSegment(6))     // pass
	c.Check(make([]byte, 2048)) // all-zero: RCT fires first
	c2 := NewChecker(Config{})
	c2.Check(pop2Segment()) // monobit-only failure
	if st := c.Stats(); st.Segments != 2 || st.Failures[RCT] != 1 || st.Total() != 1 {
		t.Fatalf("checker stats %+v", st)
	}
	if st := c2.Stats(); st.Failures[Monobit] != 1 {
		t.Fatalf("monobit checker stats %+v", st)
	}
}

func TestFailureErrorAndTestString(t *testing.T) {
	f := &Failure{Test: APT, Observed: 50, Limit: 48}
	msg := f.Error()
	for _, want := range []string{"apt", "50", "48"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	names := map[Test]string{RCT: "rct", APT: "apt", Monobit: "monobit", LongRun: "longrun"}
	for tst, want := range names {
		if tst.String() != want {
			t.Errorf("Test(%d).String() = %q, want %q", tst, tst.String(), want)
		}
	}
	if s := Test(42).String(); !strings.Contains(s, "42") {
		t.Errorf("unknown test string %q", s)
	}
}

func TestCheckerConcurrentUse(t *testing.T) {
	c := NewChecker(Config{})
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				c.Check(randSegment(int64(g*1000 + i)))
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if st := c.Stats(); st.Segments != 200 {
		t.Fatalf("segments %d, want 200", st.Segments)
	}
}

func BenchmarkCheck(b *testing.B) {
	c := NewChecker(Config{})
	seg := randSegment(7)
	b.SetBytes(int64(len(seg)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Check(seg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckFailing keeps the exact scan's cost visible: a segment
// the screen cannot clear pays for the byte- and bit-level scan up to
// the first failure.
func BenchmarkCheckFailing(b *testing.B) {
	stuck := randSegment(8)
	for p := 8*1000 + 3; p < 8*1000+3+64; p++ { // a stuck 64-bit run off byte alignment
		stuck[p/8] |= 1 << (p % 8)
	}
	stuck[1000] &^= 1 << 2 // the bits on either side differ, so the run is exactly 64
	stuck[1008] &^= 1 << 3
	for _, bc := range []struct {
		name string
		seg  []byte
		want Test
	}{
		{"zero", make([]byte, 2048), RCT},
		{"stuck64", stuck, LongRun},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := NewChecker(Config{})
			b.SetBytes(int64(len(bc.seg)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var f *Failure
				if err := c.Check(bc.seg); !errors.As(err, &f) || f.Test != bc.want {
					b.Fatalf("got %v, want %s failure", err, bc.want)
				}
			}
		})
	}
}
