// Package stats provides the descriptive statistics and the
// multiple-testing correction fairrank uses to report unfairness
// measurements: per-seed summaries of table cells, the Gini coefficient of
// marketplace earnings, and Benjamini-Hochberg control of the false
// discovery rate across an audit campaign's p-values. The permutation test
// behind those p-values is core.Significance.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or an error when xs is empty.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// Variance returns the population variance of xs.
func Variance(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += float64(d * d) // rounded: no multiply-add fuses
	}
	return s / float64(len(xs)), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// MinMax returns the smallest and largest value in xs.
func MinMax(xs []float64) (min, max float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}

// Gini returns the Gini coefficient of a non-negative sample: 0 for
// perfect equality, approaching 1 when one member holds everything. It is
// the standard summary of income inequality, used by the marketplace
// simulator to measure how assignment policies distribute earnings.
func Gini(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if sorted[0] < 0 {
		return 0, errors.New("stats: Gini needs non-negative values")
	}
	n := float64(len(sorted))
	var cum, total float64
	for i, x := range sorted {
		cum += float64(float64(i+1) * x) // rounded: no multiply-add fuses
		total += x
	}
	if total == 0 {
		return 0, nil
	}
	return (2*cum)/(n*total) - (n+1)/n, nil
}

// BenjaminiHochberg applies the Benjamini-Hochberg step-up procedure to a
// set of p-values, controlling the false discovery rate at level alpha. It
// returns, for each input p-value (in input order), whether the
// corresponding hypothesis is rejected. Use it when auditing many scoring
// functions or many groupings at once: testing 20 functions at p<0.05 finds
// one "unfair" function by luck alone.
func BenjaminiHochberg(pValues []float64, alpha float64) ([]bool, error) {
	if len(pValues) == 0 {
		return nil, ErrEmpty
	}
	if alpha <= 0 || alpha >= 1 {
		return nil, errors.New("stats: alpha must be in (0,1)")
	}
	type indexed struct {
		p float64
		i int
	}
	sorted := make([]indexed, len(pValues))
	for i, p := range pValues {
		if p < 0 || p > 1 || p != p {
			return nil, errors.New("stats: p-values must be in [0,1]")
		}
		sorted[i] = indexed{p, i}
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].p < sorted[b].p })
	m := float64(len(sorted))
	cutoff := -1
	for k := len(sorted) - 1; k >= 0; k-- {
		if sorted[k].p <= float64(k+1)/m*alpha {
			cutoff = k
			break
		}
	}
	out := make([]bool, len(pValues))
	for k := 0; k <= cutoff; k++ {
		out[sorted[k].i] = true
	}
	return out, nil
}
