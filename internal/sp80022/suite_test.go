package sp80022

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/curand"
)

// The theoretical class-probability tables used by the chi-square tests
// must each sum to 1 (typos in transcribed constants are the classic
// failure mode of sts ports).
func TestClassProbabilitiesSumToOne(t *testing.T) {
	sum := 0.0
	for _, p := range overlappingPi {
		sum += p
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Errorf("overlapping-template probabilities sum to %v", sum)
	}
	sum = 0
	for _, p := range linearComplexityPi {
		sum += p
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Errorf("linear-complexity probabilities sum to %v", sum)
	}
	for _, x := range []int{-4, -3, -2, -1, 1, 2, 3, 4} {
		sum = 0
		for k := 0; k <= 5; k++ {
			sum += excursionPi(k, x)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("excursion probabilities for x=%d sum to %v", x, sum)
		}
	}
	// Longest-run tables.
	for _, pi := range [][]float64{
		{0.21484375, 0.3671875, 0.23046875, 0.1875},
		{0.1174035788, 0.242955959, 0.249363483, 0.17517706, 0.102701071, 0.112398847},
		{0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727},
	} {
		sum = 0
		for _, p := range pi {
			sum += p
		}
		if math.Abs(sum-1) > 1e-3 {
			t.Errorf("longest-run table sums to %v", sum)
		}
	}
	// Rank probabilities over all possible ranks.
	sum = 0
	for r := 0; r <= 32; r++ {
		sum += rankProb(32, 32, r)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("rank probabilities sum to %v", sum)
	}
}

func TestBitsFromWords(t *testing.T) {
	bits := BitsFromWords([]uint64{1, 1 << 63})
	if len(bits) != 128 {
		t.Fatalf("length %d", len(bits))
	}
	if bits[0] != 1 || bits[1] != 0 || bits[63] != 0 || bits[64+63] != 1 {
		t.Fatal("word bit order wrong")
	}
}

func TestBitsFromBytesOrder(t *testing.T) {
	bits := BitsFromBytes([]byte{0x01, 0x80})
	// LSB-first: the first byte contributes 1,0,0,0,0,0,0,0.
	if len(bits) != 16 || bits[0] != 1 || bits[7] != 0 || bits[8] != 0 || bits[15] != 1 {
		t.Fatalf("unexpected order %v", bits)
	}
}

func TestParamsDefaults(t *testing.T) {
	var p Params
	p.defaults()
	if p.BlockFrequencyM != 128 || p.NonOverlappingM != 9 ||
		p.ApproxEntropyM != 10 || p.SerialM != 16 || p.LinearComplexityM != 500 {
		t.Errorf("unexpected defaults: %+v", p)
	}
	// Non-zero values survive.
	q := Params{SerialM: 12}
	q.defaults()
	if q.SerialM != 12 {
		t.Error("explicit parameter overwritten")
	}
}

func TestRunAllSkipExpensive(t *testing.T) {
	bits := randomBits(1<<17, 5)
	results := RunAll(bits, Params{SkipExpensiveTests: true})
	for _, r := range results {
		if r.Name == "LinearComplexity" {
			t.Fatal("linear complexity ran despite SkipExpensiveTests")
		}
	}
	if len(results) != len(TestNames)-1 {
		t.Errorf("got %d results, want %d", len(results), len(TestNames)-1)
	}
}

// RunStreams returns, in stream order, what RunAll returns for each
// stream, with more streams than CPUs so some wait for a slot.
func TestRunStreamsMatchesRunAll(t *testing.T) {
	streams := make([][]uint8, runtime.NumCPU()+3)
	for i := range streams {
		streams[i] = randomBits(1<<13, uint32(i)+1)
	}
	params := Params{SkipExpensiveTests: true}
	got := RunStreams(streams, params)
	if len(got) != len(streams) {
		t.Fatalf("got %d result sets, want %d", len(got), len(streams))
	}
	for i, bits := range streams {
		if want := RunAll(bits, params); !reflect.DeepEqual(got[i], want) {
			t.Errorf("stream %d: RunStreams and RunAll disagree", i)
		}
	}
}

// Under H0 the p-values of a single test over many independent streams
// must be roughly uniform — the self-check SP 800-22 §4 prescribes.
func TestPValueUniformityUnderH0(t *testing.T) {
	const streams = 200
	ps := make([]float64, 0, streams)
	for s := 0; s < streams; s++ {
		g := curand.NewPhilox4x32(uint64(s) + 1)
		bits := make([]uint8, 1<<13)
		for i := 0; i < len(bits); i += 32 {
			w := g.Uint32()
			for j := 0; j < 32; j++ {
				bits[i+j] = uint8((w >> uint(j)) & 1)
			}
		}
		p, err := Frequency(bits)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	if u := UniformityPValue(ps); u < 1e-4 {
		t.Errorf("frequency p-values not uniform under H0: u=%g", u)
	}
	if prop := Proportion(ps, Alpha); prop < 0.95 {
		t.Errorf("proportion %v too low under H0", prop)
	}
}

// The non-overlapping count logic must match a naive scan oracle.
func TestNonOverlappingCountOracle(t *testing.T) {
	seg := []uint8{1, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1}
	tpl := []uint8{1, 0, 1}
	// Naive non-overlapping scan.
	want := 0
	for i := 0; i+3 <= len(seg); {
		if seg[i] == tpl[0] && seg[i+1] == tpl[1] && seg[i+2] == tpl[2] {
			want++
			i += 3
		} else {
			i++
		}
	}
	got := 0
	for i := 0; i+3 <= len(seg); {
		if matchAt(seg, tpl, i) {
			got++
			i += 3
		} else {
			i++
		}
	}
	if got != want || got != 4 {
		t.Fatalf("count %d, oracle %d, expected 4", got, want)
	}
}

func TestTemplateErrors(t *testing.T) {
	if _, err := NonOverlappingTemplate(make([]uint8, 10), 9); err == nil {
		t.Error("short stream accepted")
	}
	if _, err := OverlappingTemplate(make([]uint8, 100)); err == nil {
		t.Error("short stream accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for m=0 templates")
		}
	}()
	aperiodicTemplates(0)
}

func TestSummarizeSkipsErrored(t *testing.T) {
	perStream := [][]Result{
		{{Name: "A", PValues: []float64{0.5}}},
		{{Name: "A", Err: errShort}},
	}
	sums := Summarize(perStream)
	if len(sums) != 1 || sums[0].Streams != 1 {
		t.Fatalf("unexpected summary %+v", sums)
	}
}

func TestCumulativeSumsDirections(t *testing.T) {
	// A stream with a drift early on must score differently forward vs
	// backward.
	// 30 ones, then 90 zeros, then balanced alternation: the forward walk
	// peaks at |S| = 60 while the backward walk peaks at |S| = 90.
	bits := make([]uint8, 2000)
	for i := range bits {
		switch {
		case i < 30:
			bits[i] = 1
		case i < 120:
			bits[i] = 0
		default:
			bits[i] = uint8(i & 1)
		}
	}
	f, b, err := CumulativeSums(bits)
	if err != nil {
		t.Fatal(err)
	}
	if f == b {
		t.Error("forward and backward cusum identical on asymmetric stream")
	}
}

func TestDFTPow2AndNonPow2Lengths(t *testing.T) {
	// Both paths must work; 2^14 exercises the radix-2 kernel, 10^4 the
	// Bluestein path.
	for _, n := range []int{1 << 14, 10000} {
		p, err := DFT(randomBits(n, 9))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if p < Alpha {
			t.Errorf("n=%d: good data rejected p=%g", n, p)
		}
	}
}

func TestLinearComplexityDegenerate(t *testing.T) {
	// Period-2 data has linear complexity 2 per block: wildly un-random.
	bits := make([]uint8, 100000)
	for i := range bits {
		bits[i] = uint8(i & 1)
	}
	p, err := LinearComplexity(bits, 500)
	if err != nil {
		t.Fatal(err)
	}
	if p >= Alpha {
		t.Errorf("alternating stream passed linear complexity: p=%g", p)
	}
}

func TestUniversalDegenerate(t *testing.T) {
	bits := make([]uint8, 500000)
	for i := range bits {
		bits[i] = uint8(i & 1)
	}
	p, err := Universal(bits)
	if err != nil {
		t.Fatal(err)
	}
	if p >= Alpha {
		t.Errorf("alternating stream passed universal: p=%g", p)
	}
}
