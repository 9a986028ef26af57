package emd

import (
	"math"
	"slices"
)

// Fixed-point integer-quantized CDF kernels. The pruning cascade needs a
// bound on the *average* pairwise EMD of hundreds-to-thousands of PMFs
// that is (a) much cheaper than the O(k²·bins) exact triangle and (b) a
// provable interval, not an estimate. Quantizing each CDF once onto an
// integer grid of FixedScale steps makes the inner loop pure int64
// arithmetic — no allocation, no float rounding to reason about — and the
// quantization error has a closed-form worst case (FixedEpsilon) that is
// folded into the returned interval, so pruning on it stays exact.
//
// Quantization error. With Q = scale, q_i = round(Q·F_i) satisfies
// |q_i/Q − F_i| ≤ 1/(2Q) + δ, where δ covers the float rounding inside
// the cumulative sum F (≤ bins·2⁻⁵² per entry, far below 1e-12). For a
// pair the per-bin CDF-gap error is at most twice that, so
//
//	|unit/Q·Σ_b|q_p[b]−q_q[b]|  −  EMD(p,q)|  ≤  unit·bins·(1/Q + 1e-12)
//
// which is FixedEpsilon(bins, unit, scale). Averaging over pairs cannot
// amplify a per-pair worst case, so the same ε brackets the average; the
// interval additionally carries a float-reduction margin (see
// FixedAvgInterval) because the engine's exact average is itself a float
// sum in a different association order.

// FixedScale is the default quantization grid: CDF values are represented
// in units of 2⁻³⁰, giving ε ≈ unit·bins·9.3e-10 per pair — roughly seven
// orders of magnitude below the distances Table 2 workloads discriminate
// on — while keeping k²·scale pairwise sums far from int64 overflow for
// any partition count the engine can reach (safe to k ≈ 10⁵ parts).
const FixedScale int64 = 1 << 30

// FixedCDF quantizes PMF p's CDF onto an integer grid: out[i] =
// round(scale·Σ_{j≤i} p_j). ok is false (out nil) if p contains a
// non-finite value or scale < 1. Degenerate shapes — empty, zero-mass,
// or unnormalized PMFs — quantize fine; the kernel's bounds only require
// that all compared rows were quantized with the same scale.
func FixedCDF(p []float64, scale int64) (out []int64, ok bool) {
	if scale < 1 {
		return nil, false
	}
	out = make([]int64, len(p))
	cum := 0.0
	for i, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, false
		}
		cum += v
		out[i] = int64(math.RoundToEven(cum * float64(scale)))
	}
	return out, true
}

// DequantizeCDF converts a quantized CDF back to floats, out[i] =
// q[i]/scale. Round-tripping a finite PMF through FixedCDF and
// DequantizeCDF reproduces each cumulative value within 1/(2·scale) +
// 1e-12 — the property the FuzzFixedQuant target pins.
func DequantizeCDF(q []int64, scale int64) []float64 {
	out := make([]float64, len(q))
	s := float64(scale)
	for i, v := range q {
		out[i] = float64(v) / s
	}
	return out
}

// FixedEpsilon is the documented worst-case absolute error of a
// fixed-point pair distance (FixedDistance vs PMFDistance) for PMFs over
// the given bin count: unit·bins·(1/scale + 1e-12). The 1e-12 term covers
// float rounding inside the CDF accumulation with >10³ headroom for any
// realistic bin count.
func FixedEpsilon(bins int, unit float64, scale int64) float64 {
	// Rounded, like PMFDistance's product, so no inlining caller fuses it.
	return float64(math.Abs(unit) * float64(bins) * (1/float64(scale) + 1e-12))
}

// FixedDistance computes the quantized closed-form EMD between two
// quantized CDFs (min-length convention, matching PMFDistance): it is
// within FixedEpsilon of the exact PMFDistance of the PMFs the rows were
// quantized from.
func FixedDistance(a, b []int64, unit float64, scale int64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var total int64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		total += d
	}
	return float64(total) * unit / float64(scale)
}

// FixedPairwiseSum computes Σ_{i<j} Σ_b |rows[i][b] − rows[j][b]| over all
// unordered row pairs in O(bins·k·log k) instead of the naive O(bins·k²):
// for each bin the column is sorted ascending and the classic order-
// statistics identity Σ_{i<j}(x_(j) − x_(i)) = Σ_j x_(j)·(2j − k + 1)
// collapses the pairwise sum to one weighted pass. Rows shorter than the
// first row truncate the compared bin range (engine rows are always
// equal-length). scratch is reused when it has capacity ≥ k, and the
// possibly-grown slice is returned so steady-state calls are
// allocation-free.
//
// Overflow: each per-bin accumulator is bounded by k²/2·scale < 2⁶³ for
// k·√scale < 2³², i.e. k ≤ ~1.3·10⁵ at FixedScale — orders of magnitude
// beyond any partition count the engine produces. Cross-bin accumulation
// is in float64; its relative rounding (≤ bins·2⁻⁵³) is absorbed by the
// 1e-12 slack in FixedEpsilon.
func FixedPairwiseSum(rows [][]int64, scratch []int64) (sum float64, scratchOut []int64) {
	k := len(rows)
	if k < 2 {
		return 0, scratch
	}
	bins := len(rows[0])
	for _, r := range rows {
		if len(r) < bins {
			bins = len(r)
		}
	}
	if cap(scratch) < k {
		scratch = make([]int64, k)
	}
	col := scratch[:k]
	for b := 0; b < bins; b++ {
		for i, r := range rows {
			col[i] = r[b]
		}
		slices.Sort(col)
		var binSum int64
		for j, x := range col {
			binSum += x * int64(2*j-k+1)
		}
		sum += float64(binSum)
	}
	return sum, col
}

// FixedAvgInterval brackets the exact average pairwise EMD of the PMFs the
// rows were quantized from: the true average (and the engine's float
// computation of it) lies in [lo, hi]. The half-width is
//
//	FixedEpsilon(bins, unit, scale) + (2.5e-16·n + 1e-12)·(1 + |est|)
//
// with n = k·(k−1)/2 the pair count — the per-pair quantization worst
// case (averaging cannot exceed the per-pair maximum) plus a reduction
// margin covering the engine's own serial float summation of the n pair
// distances in canonical order: a serial sum of n terms carries relative
// error below n·u with u = 2⁻⁵³ ≈ 1.11e-16, padded to 2.5e-16·n to also
// absorb the division, the kernel's cross-bin float accumulation, and
// double-rounding headroom. Scaling the margin by the pair count keeps it
// valid for the largest engine scans (10⁷ pairs → margin ≈ 2.5e-9·est)
// without bloating the interval for small ones. Fewer than two rows
// bracket the engine's zero-pairs convention exactly.
func FixedAvgInterval(rows [][]int64, unit float64, scale int64, scratch []int64) (lo, hi float64, scratchOut []int64) {
	k := len(rows)
	if k < 2 {
		return 0, 0, scratch
	}
	sum, scratch := FixedPairwiseSum(rows, scratch)
	pairs := float64(k) * float64(k-1) / 2
	est := sum * unit / float64(scale) / pairs
	// Each product is rounded before its add: no multiply-add fuses.
	eps := FixedEpsilon(len(rows[0]), unit, scale) + float64((float64(2.5e-16*pairs)+1e-12)*(1+math.Abs(est)))
	lo = est - eps
	if lo < 0 {
		lo = 0
	}
	return lo, est + eps, scratch
}
