package main

import (
	"math"
	"sort"
	"time"
)

// metric is one named measurement. Samples is the number of
// observations behind a latency percentile or median (0 when the value
// is a single ratio of totals).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metricSet maps metric names to their measurements.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64, samples int) {
	m[name] = metric{Value: v, Unit: unit, Samples: samples}
}

// quantile returns the nearest-rank q-quantile of xs (0 < q ≤ 1): the
// smallest value with at least q·len(xs) values at or below it. xs is
// sorted in place; an empty slice yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same "exclusive" interpolation as Python's
// statistics.quantiles(xs, n=4), which is how run-to-run spread is
// judged. Fewer than two values give the single value three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return ys[0], ys[0], ys[0]
	}
	at := func(k int) float64 {
		// Python's integer arithmetic, including its clamp of j to
		// 1..n-1 before delta is taken (which extrapolates at the ends).
		m := n + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := k*m - j*4
		return (ys[j-1]*float64(4-delta) + ys[j]*float64(delta)) / 4
	}
	return at(1), median(ys), at(3)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
