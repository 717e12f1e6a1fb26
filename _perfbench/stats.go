package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by the nearest-rank
// method; NaN for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowRates splits operations by their end times into consecutive
// windows of k and returns each whole window's operations per second.
func windowRates(ends []float64, k int) []float64 {
	e := append([]float64(nil), ends...)
	sort.Float64s(e)
	var rates []float64
	prev := 0.0
	for j := k - 1; j < len(e); j += k {
		if d := e[j] - prev; d > 0 {
			rates = append(rates, float64(k)/d)
		}
		prev = e[j]
	}
	return rates
}

// tailQuantile is the highest of the reported tail percentiles that
// leaves at least ten samples beyond it, so a tail is never read off a
// handful of outliers. It returns 0.5 when n < 20.
func tailQuantile(n int) float64 {
	best := 0.5
	for _, q := range []float64{0.9, 0.99, 0.999} {
		if float64(n)*(1-q) >= 10 {
			best = q
		}
	}
	return best
}

// percentileName renders a quantile as a metric suffix: 0.99 -> "p99".
func percentileName(q float64) string {
	switch q {
	case 0.5:
		return "p50"
	case 0.9:
		return "p90"
	case 0.99:
		return "p99"
	default:
		return "p99.9"
	}
}
