package main

import (
	"math"
	"sort"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (NaN for no samples).
func quantile(xs []time.Duration, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	for i, x := range xs {
		s[i] = ms(x)
	}
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail reports the q-quantile only when at least ten samples lie beyond
// it, the rule for every tail percentile the benchmark prints.
func tail(xs []time.Duration, q float64) (float64, bool) {
	if float64(len(xs))*(1-q) < 10 {
		return 0, false
	}
	return quantile(xs, q), true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []time.Duration) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
