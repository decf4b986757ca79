package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/sp80022"
)

func TestAlgorithmNames(t *testing.T) {
	for _, alg := range Algorithms {
		parsed, err := ParseAlgorithm(alg.String())
		if err != nil || parsed != alg {
			t.Errorf("round trip failed for %v", alg)
		}
	}
	if _, err := ParseAlgorithm("rot13"); err == nil {
		t.Error("bad name accepted")
	}
	if a, err := ParseAlgorithm("aes"); err != nil || a != AESCTR {
		t.Error("aes alias broken")
	}
	if Algorithm(99).String() == "" {
		t.Error("unknown algorithm String empty")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, alg := range Algorithms {
		a, err := NewGenerator(alg, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewGenerator(alg, 42)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]byte, 3000)
		y := make([]byte, 3000)
		a.Read(x)
		b.Read(y)
		if !bytes.Equal(x, y) {
			t.Errorf("%v: same seed diverged", alg)
		}
		c, _ := NewGenerator(alg, 43)
		z := make([]byte, 3000)
		c.Read(z)
		if bytes.Equal(x, z) {
			t.Errorf("%v: different seeds produced identical output", alg)
		}
	}
}

func TestGeneratorChunkingInvariance(t *testing.T) {
	for _, alg := range Algorithms {
		a, _ := NewGenerator(alg, 7)
		b, _ := NewGenerator(alg, 7)
		whole := make([]byte, 2500)
		a.Read(whole)
		pieces := make([]byte, 2500)
		step := 1
		for off := 0; off < len(pieces); {
			n := step
			if off+n > len(pieces) {
				n = len(pieces) - off
			}
			b.Read(pieces[off : off+n])
			off += n
			step = step*3 + 1
		}
		if !bytes.Equal(whole, pieces) {
			t.Errorf("%v: output depends on read chunking", alg)
		}
	}
}

// Uint64 reads the stream's output words: the next 8 bytes, little-endian.
func TestGeneratorUint64AndWords(t *testing.T) {
	a, _ := NewGenerator(MICKEY, 3)
	b, _ := NewGenerator(MICKEY, 3)
	raw := make([]byte, 10*8)
	b.Read(raw)
	for i := 0; i < len(raw); i += 8 {
		if got, w := a.Uint64(), binary.LittleEndian.Uint64(raw[i:]); got != w {
			t.Fatalf("word %d: %x vs %x", i/8, got, w)
		}
	}
	if a.Algorithm() != MICKEY {
		t.Error("Algorithm() wrong")
	}
}

// Distinct seed domains must produce distinct streams.
func TestSeedDomainSeparation(t *testing.T) {
	for _, alg := range Algorithms {
		r1, err := NewSegmentReader(alg, 5, 1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := NewSegmentReader(alg, 5, 2, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		a := make([]byte, SegmentBytes)
		b := make([]byte, SegmentBytes)
		r1.Read(a)
		r2.Read(b)
		if bytes.Equal(a, b) {
			t.Errorf("%v: domains 1 and 2 produced identical blocks", alg)
		}
	}
}

// segmentMaterial derives the key and IV strings of segments
// base..base+lanes-1 of (seed, domain), lane l for segment base+l.
func segmentMaterial(seed, domain, base uint64, lanes, keyLen, ivLen int) (keys, ivs [][]byte) {
	m := newLaneMaterial(lanes, keyLen, ivLen)
	for l := range lanes {
		m.deriveLane(l, seed, domain, base+uint64(l))
	}
	return m.keys, m.ivs
}

func TestSegmentMaterialDistinct(t *testing.T) {
	keys, ivs := segmentMaterial(1, 0, 0, 64, 10, 10)
	seen := map[string]bool{}
	for l := 0; l < 64; l++ {
		k := string(keys[l]) + "|" + string(ivs[l])
		if seen[k] {
			t.Fatal("duplicate segment material")
		}
		seen[k] = true
	}
	// Different seeds must give different material.
	keys2, _ := segmentMaterial(2, 0, 0, 64, 10, 10)
	if bytes.Equal(keys[0], keys2[0]) {
		t.Error("seed does not influence segment material")
	}
}

// Segment material must depend only on the absolute segment index, not
// on the lane that derives it — the property that lets a pass key any
// lane for any segment.
func TestSegmentMaterialIndexedAbsolutely(t *testing.T) {
	wide, wideIVs := segmentMaterial(9, 3, 0, 512, 10, 8)
	for _, l := range []int{0, 1, 63, 64, 255, 256, 511} {
		one, oneIV := segmentMaterial(9, 3, uint64(l), 1, 10, 8)
		if !bytes.Equal(wide[l], one[0]) || !bytes.Equal(wideIVs[l], oneIV[0]) {
			t.Fatalf("segment %d material depends on the lane that derives it", l)
		}
	}
}

func TestStreamDeterministicAcrossRuns(t *testing.T) {
	cfg := StreamConfig{Workers: 3, StagingBytes: 2048}
	for _, alg := range Algorithms {
		s1, err := NewStream(alg, 11, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a := make([]byte, 20000)
		s1.Read(a)
		s1.Close()

		s2, err := NewStream(alg, 11, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b := make([]byte, 20000)
		s2.Read(b)
		s2.Close()

		if !bytes.Equal(a, b) {
			t.Errorf("%v: stream is not deterministic across runs", alg)
		}
		if !bytes.Equal(a, domainOne(t, alg, 11, len(a))) {
			t.Errorf("%v: 3-worker stream diverges from the domain-1 stream", alg)
		}
	}
}

func TestStreamMatchesSingleWorkerComposition(t *testing.T) {
	// A stream must equal the domain-1 engine's raw output, for one
	// worker and for several.
	eng, _ := newSegmented(MICKEY, 9, 1, 0, 1, 1, 0)
	want := make([]byte, 8*SegmentBytes)
	eng.nextBlocks(want)
	for _, workers := range []int{1, 3} {
		s, err := NewStream(MICKEY, 9, StreamConfig{Workers: workers, StagingBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(want))
		s.Read(got)
		s.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-worker stream diverges from the domain-1 engine", workers)
		}
	}
}

func TestStreamValidation(t *testing.T) {
	if _, err := NewStream(MICKEY, 1, StreamConfig{Workers: -1}); err == nil {
		t.Error("negative workers accepted")
	}
	if _, err := NewStream(MICKEY, 1, StreamConfig{Workers: 1, StagingBytes: 100}); err == nil {
		t.Error("tiny staging accepted")
	}
	if _, err := NewStream(Algorithm(99), 1, StreamConfig{Workers: 1}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestFillDeterministicAndParallel(t *testing.T) {
	a := make([]byte, 100000)
	b := make([]byte, 100000)
	if err := Fill(MICKEY, 21, 4, a); err != nil {
		t.Fatal(err)
	}
	if err := Fill(MICKEY, 21, 4, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("Fill is not deterministic")
	}
	c := make([]byte, 100000)
	if err := Fill(MICKEY, 22, 4, c); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("Fill ignores the seed")
	}
}

func TestFillEdgeCases(t *testing.T) {
	if err := Fill(MICKEY, 1, 4, nil); err != nil {
		t.Fatal(err)
	}
	// Region smaller than one block, more workers than regions.
	small := make([]byte, 100)
	if err := Fill(GRAIN, 1, 8, small); err != nil {
		t.Fatal(err)
	}
	var zero [100]byte
	if bytes.Equal(small, zero[:]) {
		t.Fatal("Fill left buffer zeroed")
	}
	if err := Fill(Algorithm(99), 1, 1, small); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestSource64DrivesMathRand(t *testing.T) {
	src, err := NewSource64(GRAIN, 17)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(src)
	// Basic sanity: values in range, mean near 0.5.
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	mean := sum / n
	if mean < 0.48 || mean > 0.52 {
		t.Errorf("mean %v far from 0.5", mean)
	}
	if src.Int63() < 0 {
		t.Error("Int63 negative")
	}
	src.Seed(1) // no-op, must not panic
}

// The assembled generator output must look random to the core NIST tests
// — the end-to-end version of the paper's Table 3 claim, scaled down.
func TestGeneratorPassesCoreNIST(t *testing.T) {
	for _, alg := range Algorithms {
		g, _ := NewGenerator(alg, 1234)
		buf := make([]byte, 1<<14) // 131072 bits
		g.Read(buf)
		bits := sp80022.BitsFromBytes(buf)
		if p, err := sp80022.Frequency(bits); err != nil || p < sp80022.Alpha {
			t.Errorf("%v frequency: p=%v err=%v", alg, p, err)
		}
		if p, err := sp80022.Runs(bits); err != nil || p < sp80022.Alpha {
			t.Errorf("%v runs: p=%v err=%v", alg, p, err)
		}
		if p, err := sp80022.ApproximateEntropy(bits, 10); err != nil || p < sp80022.Alpha {
			t.Errorf("%v apen: p=%v err=%v", alg, p, err)
		}
	}
}

// The multi-worker stream must be as random as the single engine (worker
// interleaving must not introduce structure). A single stream fails a
// test with probability α, so assert on the pass proportion over many
// seeds instead of one draw.
func TestStreamPassesCoreNIST(t *testing.T) {
	const seeds = 20
	var freqPass, runsPass int
	for seed := uint64(0); seed < seeds; seed++ {
		s, err := NewStream(MICKEY, 90+seed, StreamConfig{Workers: 4, StagingBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1<<14)
		s.Read(buf)
		s.Close()
		bits := sp80022.BitsFromBytes(buf)
		if p, err := sp80022.Frequency(bits); err == nil && p >= sp80022.Alpha {
			freqPass++
		}
		if p, err := sp80022.Runs(bits); err == nil && p >= sp80022.Alpha {
			runsPass++
		}
	}
	// Binomial(20, 0.99): P(≤17) ≈ 1e-3; anything below is structure.
	if freqPass < 18 {
		t.Errorf("frequency pass rate %d/20", freqPass)
	}
	if runsPass < 18 {
		t.Errorf("runs pass rate %d/20", runsPass)
	}
}

func BenchmarkGeneratorMickey(b *testing.B) { benchGenerator(b, MICKEY) }
func BenchmarkGeneratorGrain(b *testing.B)  { benchGenerator(b, GRAIN) }
func BenchmarkGeneratorAESCTR(b *testing.B) { benchGenerator(b, AESCTR) }

func benchGenerator(b *testing.B, alg Algorithm) {
	g, err := NewGenerator(alg, 1)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Read(buf)
	}
}

func BenchmarkStreamAllCores(b *testing.B) {
	s, err := NewStream(GRAIN, 1, StreamConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, 1<<20)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Read(buf)
	}
}

func BenchmarkFillAllCores(b *testing.B) {
	buf := make([]byte, 1<<20)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if err := Fill(GRAIN, 1, 0, buf); err != nil {
			b.Fatal(err)
		}
	}
}
