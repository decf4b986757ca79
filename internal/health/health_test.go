package health

import (
	"errors"
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

func TestDefaultsResolved(t *testing.T) {
	c := NewChecker(Config{})
	cfg := c.Config()
	if cfg.RCTCutoff != DefaultRCTCutoff || cfg.APTWindow != DefaultAPTWindow ||
		cfg.APTCutoff != DefaultAPTCutoff || cfg.MonobitSlack != DefaultMonobitSlack ||
		cfg.LongRunBits != DefaultLongRunBits {
		t.Fatalf("defaults not resolved: %+v", cfg)
	}
	// Explicit values survive.
	c2 := NewChecker(Config{RCTCutoff: 5, APTWindow: 256})
	if c2.Config().RCTCutoff != 5 || c2.Config().APTWindow != 256 || c2.Config().APTCutoff != DefaultAPTCutoff {
		t.Fatalf("explicit config clobbered: %+v", c2.Config())
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

func TestMonobitCatchesBias(t *testing.T) {
	seg := randSegment(4)
	// Set every other byte of the first half to 0x01 (one bit set each,
	// no byte or bit runs): ~1500 one-bits gone, far past the slack.
	// The 0x01s also pile up in the APT windows, so APT is relaxed to
	// let monobit be the test that fires.
	for i := 0; i < 1024; i += 2 {
		seg[i] = 0x01
		if seg[i+1] == 0x01 {
			seg[i+1] = 0x23
		}
	}
	err := NewChecker(Config{APTCutoff: 1 << 30}).Check(seg)
	var f *Failure
	if !errors.As(err, &f) || f.Test != Monobit {
		t.Fatalf("got %v, want Monobit failure", err)
	}
}

func TestMonobitAlone(t *testing.T) {
	// A segment engineered to be heavily biased with no long byte or bit
	// runs and no repeated window byte: alternate 0x11 0x22 0x44 …
	seg := make([]byte, 2048)
	pats := []byte{0x11, 0x22, 0x44, 0x88, 0x12, 0x24, 0x48, 0x81}
	for i := range seg {
		seg[i] = pats[i%len(pats)]
	}
	err := NewChecker(Config{APTCutoff: 1 << 30, RCTCutoff: 1 << 30}).Check(seg)
	var f *Failure
	if !errors.As(err, &f) || f.Test != Monobit {
		t.Fatalf("got %v, want Monobit failure", err)
	}
}

func TestLongRunCatchesStuckBits(t *testing.T) {
	// 64 one-bits in a row, embedded inside otherwise-healthy bytes and
	// with RCT relaxed so the bit test is what fires.
	seg := randSegment(5)
	for i := 500; i < 508; i++ {
		seg[i] = 0xFF
	}
	err := NewChecker(Config{RCTCutoff: 100, APTCutoff: 1 << 30}).Check(seg)
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
	seg := make([]byte, 2048)   // monobit-only failure
	pats := []byte{0x11, 0x22, 0x44, 0x88, 0x12, 0x24, 0x48, 0x81}
	for i := range seg {
		seg[i] = pats[i%len(pats)]
	}
	c2 := NewChecker(Config{APTCutoff: 1 << 30, RCTCutoff: 1 << 30})
	c2.Check(seg)
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
