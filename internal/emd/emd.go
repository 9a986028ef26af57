// Package emd implements the Earth Mover's Distance used by the paper to
// quantify unfairness between per-partition score distributions, together
// with its bin-free limit between score samples (exact.go) and a family of
// alternative histogram distances the paper lists as future-work metrics
// (metrics.go). The average over a partitioning's pairs (Definition 2) is
// the audit engine's (internal/core), and so is the choice of a distance
// by Metric: this package holds only the distances themselves.
//
// The binned distances operate on normalized histograms (probability mass
// functions). For one-dimensional histograms with equally spaced bins the
// EMD has the classic closed form
//
//	EMD(p, q) = Σ_i |Σ_{j<=i} (p_j - q_j)| · w
//
// where w is the ground distance between adjacent bins. fairrank measures
// the ground distance in *score units* (bin width), so that, e.g., a scoring
// function giving men scores above 0.8 and women scores below 0.2 yields an
// EMD of about 0.8 — matching the values reported in Table 3 of the paper.
package emd

import "math"

// Ground selects how the ground distance between bins is measured.
type Ground int

const (
	// GroundScore measures bin distance in score units: d(i,j) = w·|i-j|
	// where w is the bin width. This is the paper-calibrated default.
	GroundScore Ground = iota
	// GroundIndex measures bin distance in normalized index units:
	// d(i,j) = |i-j| / (bins-1), so the maximum possible EMD is exactly 1.
	GroundIndex
)

// PMFDistance computes the closed-form 1-D EMD between two PMFs over
// equally spaced bins with ground distance `unit` between adjacent bins.
// The PMFs must have equal length; each should sum to 1 (the function does
// not renormalize).
func PMFDistance(p, q []float64, unit float64) float64 {
	n := len(p)
	if len(q) < n {
		n = len(q)
	}
	cum, total := 0.0, 0.0
	for i := 0; i < n; i++ {
		cum += p[i] - q[i]
		total += math.Abs(cum)
	}
	// The conversion rounds the product, so no caller that inlines this
	// function fuses it with an add into one multiply-add.
	return float64(total * unit)
}
