// Package histogram implements the score-distribution histograms that
// fairrank compares with Earth Mover's Distance.
//
// The paper builds, for every partition of the workers, "a histogram ...
// based on the function scores by creating equal bins over the range of f
// and counting the number of workers whose function values f(w) fall in
// each bin". Histogram implements exactly that, plus normalization, merging
// and the cumulative view used by the closed-form 1-D EMD.
package histogram

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-bin histogram over the closed interval [Min, Max].
// Values outside the range are clamped to the first or last bin, which is
// convenient for scores that are nominally in [0,1] but may touch the
// endpoints exactly.
type Histogram struct {
	min, max float64
	// width is BinWidth, computed once: BinIndex divides by it per value.
	width  float64
	counts []float64
	total  float64
}

// ErrBadRange is returned when max <= min, and when the bin width
// (max−min)/bins is not a positive finite number: an infinite bound, a
// range wider than the largest float64, or one too narrow to split.
var ErrBadRange = errors.New("histogram: max must be greater than min, by a positive finite bin width")

// ErrBadBins is returned when the requested number of bins is < 1.
var ErrBadBins = errors.New("histogram: need at least one bin")

// New returns an empty histogram with the given number of equal-width bins
// over [min, max].
func New(bins int, min, max float64) (*Histogram, error) {
	if bins < 1 {
		return nil, ErrBadBins
	}
	// A positive width implies max > min, and NaN bounds fail it too.
	width := (max - min) / float64(bins)
	if !(width > 0) || math.IsInf(width, 1) {
		return nil, ErrBadRange
	}
	return &Histogram{min: min, max: max, width: width, counts: make([]float64, bins)}, nil
}

// MustNew is New but panics on error; for statically-correct construction.
func MustNew(bins int, min, max float64) *Histogram {
	h, err := New(bins, min, max)
	if err != nil {
		panic(err)
	}
	return h
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Min returns the lower bound of the histogram range.
func (h *Histogram) Min() float64 { return h.min }

// Max returns the upper bound of the histogram range.
func (h *Histogram) Max() float64 { return h.max }

// BinWidth returns the width of each bin in value units.
func (h *Histogram) BinWidth() float64 { return h.width }

// BinIndex returns the index of the bin that value v falls into. Values
// below Min, and NaN, map to bin 0; values at or above Max map to the
// last bin.
func (h *Histogram) BinIndex(v float64) int {
	// Clamp in float space: converting an out-of-range float (e.g. from
	// v = +Inf or a huge finite score) straight to int overflows to a
	// negative value and used to send +Inf to bin 0 instead of the last
	// bin. Inside [0, bins) truncation is the floor, so no math.Floor is
	// needed; the negated comparison also sends NaN to bin 0.
	x := (v - h.min) / h.width
	if !(x >= 0) {
		return 0
	}
	if x >= float64(len(h.counts)) {
		return len(h.counts) - 1
	}
	return int(x)
}

// BinIndices writes the bin index of every value in vs into out, which
// must hold at least len(vs) entries, using exactly the BinIndex clamping
// rules. The
// evaluator bins its score column block by block with it, then buckets
// observations with pure integer arithmetic.
func (h *Histogram) BinIndices(vs []float64, out []int32) {
	out = out[:len(vs)]
	for i, v := range vs {
		out[i] = int32(h.BinIndex(v))
	}
}

// NormalizeCounts converts one raw count row — as accumulated by a
// counted split — into the PMF that a Histogram holding the same counts
// would return: counts/total, or uniform when the row holds no mass.
// Shared so split-built child PMFs are bit-identical to Histogram.PMF.
func NormalizeCounts(counts []float64) []float64 {
	out := make([]float64, len(counts))
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		u := 1 / float64(len(counts))
		for i := range out {
			out[i] = u
		}
		return out
	}
	for i, c := range counts {
		out[i] = c / total
	}
	return out
}

// BinCenter returns the value at the center of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	// Rounded before the add, so no multiply-add fuses.
	return h.min + float64((float64(i)+0.5)*h.BinWidth())
}

// Add records one observation of value v with weight 1.
func (h *Histogram) Add(v float64) { h.AddWeighted(v, 1) }

// AddWeighted records one observation of value v with the given weight.
// Negative weights are rejected.
func (h *Histogram) AddWeighted(v, weight float64) {
	if weight < 0 || math.IsNaN(weight) {
		panic(fmt.Sprintf("histogram: invalid weight %v", weight))
	}
	h.counts[h.BinIndex(v)] += weight
	h.total += weight
}

// AddAll records every value in vs.
func (h *Histogram) AddAll(vs []float64) {
	for _, v := range vs {
		h.Add(v)
	}
}

// Remove deletes one previously recorded observation of value v. It
// returns an error if the bin holding v is already empty, which indicates
// the caller is removing a value that was never added (bookkeeping bug).
func (h *Histogram) Remove(v float64) error {
	i := h.BinIndex(v)
	if h.counts[i] < 1 {
		return fmt.Errorf("histogram: removing %v from empty bin %d", v, i)
	}
	h.counts[i]--
	h.total--
	return nil
}

// Count returns the (possibly weighted) count in bin i.
func (h *Histogram) Count(i int) float64 { return h.counts[i] }

// Counts returns a copy of the raw bin counts.
func (h *Histogram) Counts() []float64 {
	out := make([]float64, len(h.counts))
	copy(out, h.counts)
	return out
}

// Total returns the total mass (sum of all bin counts).
func (h *Histogram) Total() float64 { return h.total }

// Empty reports whether the histogram holds no mass.
func (h *Histogram) Empty() bool { return h.total == 0 }

// PMF returns the normalized bin masses (summing to 1). If the histogram is
// empty it returns a uniform distribution, which makes distance computations
// against empty partitions well defined without special-casing callers.
func (h *Histogram) PMF() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		u := 1 / float64(len(h.counts))
		for i := range out {
			out[i] = u
		}
		return out
	}
	for i, c := range h.counts {
		out[i] = c / h.total
	}
	return out
}

// CDF returns the cumulative normalized masses; CDF()[Bins()-1] == 1 for a
// non-empty histogram (up to rounding).
func (h *Histogram) CDF() []float64 {
	pmf := h.PMF()
	cum := 0.0
	for i, p := range pmf {
		cum += p
		pmf[i] = cum
	}
	return pmf
}

// Mean returns the mass-weighted mean of bin centers, or NaN when empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return math.NaN()
	}
	s := 0.0
	for i, c := range h.counts {
		s += float64(c * h.BinCenter(i)) // rounded: no multiply-add fuses
	}
	return s / h.total
}

// Variance returns the mass-weighted variance of bin centers, or NaN when
// empty.
func (h *Histogram) Variance() float64 {
	if h.total == 0 {
		return math.NaN()
	}
	m := h.Mean()
	s := 0.0
	for i, c := range h.counts {
		d := h.BinCenter(i) - m
		s += float64(c * d * d) // rounded: no multiply-add fuses
	}
	return s / h.total
}

// Clone returns a deep copy of h.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{min: h.min, max: h.max, width: h.width, total: h.total, counts: make([]float64, len(h.counts))}
	copy(c.counts, h.counts)
	return c
}

// Reset removes all mass, keeping the binning.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
}

// Compatible reports whether two histograms share binning and range and can
// therefore be merged or compared bin-by-bin.
func (h *Histogram) Compatible(o *Histogram) bool {
	return o != nil && len(h.counts) == len(o.counts) && h.min == o.min && h.max == o.max
}

// ErrIncompatible is returned when merging histograms with different binning.
var ErrIncompatible = errors.New("histogram: incompatible binning")

// Merge adds all of o's mass into h. The two histograms must be compatible.
func (h *Histogram) Merge(o *Histogram) error {
	if !h.Compatible(o) {
		return ErrIncompatible
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	return nil
}

// String renders a compact single-line description, useful in logs.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "hist[%g,%g] n=%g {", h.min, h.max, h.total)
	for i, c := range h.counts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%g", c)
	}
	b.WriteByte('}')
	return b.String()
}
