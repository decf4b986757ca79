package sp80022

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
)

// Result is one test's outcome on one bit stream. Tests that emit several
// p-values (cusum, serial, templates, excursions) contribute them all.
type Result struct {
	Name    string
	PValues []float64
	Err     error // set when the test was not applicable to this stream
}

// Params configures the suite run; zero values select the SP 800-22
// defaults used by the paper.
type Params struct {
	BlockFrequencyM    int // §2.2 block size (default 128)
	NonOverlappingM    int // §2.7 template length (default 9)
	ApproxEntropyM     int // §2.12 block length (default 10)
	SerialM            int // §2.11 block length (default 16)
	LinearComplexityM  int // §2.10 block length (default 500)
	SkipExpensiveTests bool
}

func (p *Params) defaults() {
	if p.BlockFrequencyM == 0 {
		p.BlockFrequencyM = 128
	}
	if p.NonOverlappingM == 0 {
		p.NonOverlappingM = 9
	}
	if p.ApproxEntropyM == 0 {
		p.ApproxEntropyM = 10
	}
	if p.SerialM == 0 {
		p.SerialM = 16
	}
	if p.LinearComplexityM == 0 {
		p.LinearComplexityM = 500
	}
}

// TestNames lists the suite's tests in Table 3 order, followed by the
// three extensions.
var TestNames = []string{
	"Frequency", "BlockFrequency", "CumulativeSums", "Runs", "LongestRun",
	"Rank", "FFT", "NonOverlappingTemplate", "OverlappingTemplate",
	"ApproximateEntropy", "Serial", "LinearComplexity",
	"Universal", "RandomExcursions", "RandomExcursionsVariant",
}

// RunAll executes the full battery on one bit stream.
func RunAll(bits []uint8, params Params) []Result {
	params.defaults()
	var out []Result
	add := func(name string, ps []float64, err error) {
		out = append(out, Result{Name: name, PValues: ps, Err: err})
	}
	one := func(name string, p float64, err error) {
		if err != nil {
			add(name, nil, err)
			return
		}
		add(name, []float64{p}, nil)
	}

	p, err := Frequency(bits)
	one("Frequency", p, err)
	p, err = BlockFrequency(bits, params.BlockFrequencyM)
	one("BlockFrequency", p, err)
	f, b, err := CumulativeSums(bits)
	if err != nil {
		add("CumulativeSums", nil, err)
	} else {
		add("CumulativeSums", []float64{f, b}, nil)
	}
	p, err = Runs(bits)
	one("Runs", p, err)
	p, err = LongestRun(bits)
	one("LongestRun", p, err)
	p, err = Rank(bits)
	one("Rank", p, err)
	p, err = DFT(bits)
	one("FFT", p, err)
	if trs, err := NonOverlappingTemplate(bits, params.NonOverlappingM); err != nil {
		add("NonOverlappingTemplate", nil, err)
	} else {
		ps := make([]float64, len(trs))
		for i, tr := range trs {
			ps[i] = tr.P
		}
		add("NonOverlappingTemplate", ps, nil)
	}
	p, err = OverlappingTemplate(bits)
	one("OverlappingTemplate", p, err)
	p, err = ApproximateEntropy(bits, params.ApproxEntropyM)
	one("ApproximateEntropy", p, err)
	p1, p2, err := Serial(bits, params.SerialM)
	if err != nil {
		add("Serial", nil, err)
	} else {
		add("Serial", []float64{p1, p2}, nil)
	}
	if !params.SkipExpensiveTests {
		p, err = LinearComplexity(bits, params.LinearComplexityM)
		one("LinearComplexity", p, err)
	}
	p, err = Universal(bits)
	one("Universal", p, err)
	if ers, err := RandomExcursions(bits); err != nil {
		add("RandomExcursions", nil, err)
	} else {
		ps := make([]float64, len(ers))
		for i, er := range ers {
			ps[i] = er.P
		}
		add("RandomExcursions", ps, nil)
	}
	if ers, err := RandomExcursionsVariant(bits); err != nil {
		add("RandomExcursionsVariant", nil, err)
	} else {
		ps := make([]float64, len(ers))
		for i, er := range ers {
			ps[i] = er.P
		}
		add("RandomExcursionsVariant", ps, nil)
	}
	return out
}

// RunStreams runs the battery on every stream, at most runtime.NumCPU()
// streams at a time, and returns their results in stream order.
func RunStreams(streams [][]uint8, params Params) [][]Result {
	results := make([][]Result, len(streams))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for i, bits := range streams {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			results[i] = RunAll(bits, params)
			<-sem
		}()
	}
	wg.Wait()
	return results
}

// Summary aggregates one test's p-values across many streams the way the
// paper's Table 3 reports them: the proportion of p-values ≥ α, and the
// uniformity P-value (a chi-square over ten equal p-value bins, §4.2.2).
type Summary struct {
	Name       string
	Streams    int     // number of contributing p-values
	Proportion float64 // share passing at α
	Uniformity float64 // P-value of the uniformity chi-square
}

// Summarize collapses per-stream results into per-test summaries.
func Summarize(perStream [][]Result) []Summary {
	byName := map[string][]float64{}
	var order []string
	for _, results := range perStream {
		for _, r := range results {
			if r.Err != nil {
				continue
			}
			if _, seen := byName[r.Name]; !seen {
				order = append(order, r.Name)
			}
			byName[r.Name] = append(byName[r.Name], r.PValues...)
		}
	}
	out := make([]Summary, 0, len(order))
	for _, name := range order {
		ps := byName[name]
		out = append(out, Summary{
			Name:       name,
			Streams:    len(ps),
			Proportion: Proportion(ps, Alpha),
			Uniformity: UniformityPValue(ps),
		})
	}
	return out
}

// Proportion returns the share of p-values at or above alpha.
func Proportion(ps []float64, alpha float64) float64 {
	if len(ps) == 0 {
		return 0
	}
	pass := 0
	for _, p := range ps {
		if p >= alpha {
			pass++
		}
	}
	return float64(pass) / float64(len(ps))
}

// ProportionBounds returns the acceptance interval for the proportion
// statistic at the given sample size (p̂ ± 3·sqrt(p̂(1−p̂)/s), §4.2.1).
func ProportionBounds(streams int, alpha float64) (lo, hi float64) {
	if streams == 0 {
		return 0, 1
	}
	phat := 1 - alpha
	d := 3 * math.Sqrt(phat*alpha/float64(streams))
	return phat - d, phat + d
}

// UniformityPValue computes the P-value of the chi-square uniformity test
// over ten p-value bins (§4.2.2); SP 800-22 deems the distribution uniform
// when it is ≥ 0.0001.
func UniformityPValue(ps []float64) float64 {
	if len(ps) == 0 {
		return 0
	}
	var bins [10]int
	for _, p := range ps {
		i := int(p * 10)
		if i > 9 {
			i = 9
		}
		if i < 0 {
			i = 0
		}
		bins[i]++
	}
	e := float64(len(ps)) / 10
	chi2 := 0.0
	for _, c := range bins {
		chi2 += sq(float64(c)-e) / e
	}
	return igamc(9.0/2, chi2/2)
}

// Verdict reports whether a summary passes both SP 800-22 acceptance
// criteria.
func (s Summary) Verdict() bool {
	lo, _ := ProportionBounds(s.Streams, Alpha)
	return s.Proportion >= lo && s.Uniformity >= 0.0001
}

// String renders the summary as one Table 3 row.
func (s Summary) String() string {
	status := "Success"
	if !s.Verdict() {
		status = "FAIL"
	}
	return fmt.Sprintf("%-24s %-10.6f %-10.4f %s", s.Name, s.Uniformity, s.Proportion, status)
}

// Median is a helper for reporting: the median of a p-value set.
func Median(ps []float64) float64 {
	if len(ps) == 0 {
		return 0
	}
	c := append([]float64(nil), ps...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}
