package testkit

import (
	"math"
	"sort"
)

// Oracle bundles the slow reference implementations. The zero value is ready
// to use; methods are pure functions kept on a type so the differential
// tests read as engine-vs-oracle comparisons and so future oracles (e.g. a
// tolerance-carrying variant) can extend the same API.
type Oracle struct{}

// EMDFlow computes the 1-D EMD between two equal-length PMFs by building an
// explicit optimal flow: surplus bins ship mass to deficit bins under the
// monotone (leftmost-to-leftmost) coupling, which is optimal for any convex
// ground cost on the line. unit is the ground distance between adjacent
// bins. This is the brute-force counterpart of emd.PMFDistance's
// cumulative-sum closed form: same value, completely different derivation.
func (Oracle) EMDFlow(p, q []float64, unit float64) float64 {
	n := len(p)
	if len(q) < n {
		n = len(q)
	}
	type lump struct {
		bin  int
		mass float64
	}
	var supply, demand []lump
	for i := 0; i < n; i++ {
		switch d := p[i] - q[i]; {
		case d > 0:
			supply = append(supply, lump{i, d})
		case d < 0:
			demand = append(demand, lump{i, -d})
		}
	}
	cost := 0.0
	si, di := 0, 0
	for si < len(supply) && di < len(demand) {
		m := supply[si].mass
		if demand[di].mass < m {
			m = demand[di].mass
		}
		cost += m * math.Abs(float64(supply[si].bin-demand[di].bin)) * unit
		supply[si].mass -= m
		demand[di].mass -= m
		if supply[si].mass <= 1e-15 {
			si++
		}
		if demand[di].mass <= 1e-15 {
			di++
		}
	}
	return cost
}

// AvgPairwise is the from-scratch average pairwise EMD over a set of PMFs:
// every unordered pair through EMDFlow, summed in (i, j) order. Fewer than
// two PMFs yield 0, matching the engine's convention.
func (o Oracle) AvgPairwise(pmfs [][]float64, unit float64) float64 {
	k := len(pmfs)
	if k < 2 {
		return 0
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			sum += o.EMDFlow(pmfs[i], pmfs[j], unit)
		}
	}
	return sum / float64(k*(k-1)/2)
}

// Counts is naive full-split histogramming over [min, max) with
// histogram.Histogram's exact clamping rules: NaN and below-range values
// land in bin 0, at-or-above-max values in the last bin. One branchy pass,
// no precomputed bin indices, no scatter tricks.
func (Oracle) Counts(values []float64, bins int, min, max float64) []float64 {
	counts := make([]float64, bins)
	for _, v := range values {
		counts[binOf(v, bins, min, max)]++
	}
	return counts
}

// binOf is Counts' bin rule for one value: divide its offset from min by
// the bin width and floor, clamping NaN and below-range values low and
// at-or-above-max values (incl. +Inf) high.
func binOf(v float64, bins int, min, max float64) int {
	f := math.Floor((v - min) / ((max - min) / float64(bins)))
	switch {
	case math.IsNaN(v), f < 0:
		return 0
	case f >= float64(bins):
		return bins - 1
	}
	return int(f)
}

// PMF normalizes a count row, returning the uniform distribution for an
// all-zero row — the same convention as histogram.Histogram.PMF, restated
// independently.
func (Oracle) PMF(counts []float64) []float64 {
	total := 0.0
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		for i := range out {
			out[i] = 1 / float64(len(counts))
		}
		return out
	}
	for i, c := range counts {
		out[i] = c / total
	}
	return out
}

// Unfairness is the full reference pipeline for the paper's Definition 2 in
// binned GroundScore mode: histogram every part's scores over [0,1] with
// the given bin count, normalize, and average the pairwise flow EMDs with
// unit = 1/bins (the bin width). parts holds row indices into scores; it is
// the caller's problem to pass a disjoint cover when mirroring a
// Partitioning.
func (o Oracle) Unfairness(scores []float64, parts [][]int, bins int) float64 {
	pmfs := make([][]float64, len(parts))
	for i, part := range parts {
		vals := make([]float64, len(part))
		for k, row := range part {
			vals[k] = scores[row]
		}
		pmfs[i] = o.PMF(o.Counts(vals, bins, 0, 1))
	}
	return o.AvgPairwise(pmfs, 1/float64(bins))
}

// ExactUnfairness is Unfairness in bin-free Exact mode: each part is a
// uniform empirical distribution over its scores and pairs are compared
// with WpFlow at p = 1. Empty parts contribute distance 0 against
// everything, matching emd.Exact1DSorted's empty-sample convention.
func (o Oracle) ExactUnfairness(scores []float64, parts [][]int) float64 {
	k := len(parts)
	if k < 2 {
		return 0
	}
	samples := make([][]float64, k)
	for i, part := range parts {
		s := make([]float64, len(part))
		for j, row := range part {
			s[j] = scores[row]
		}
		samples[i] = s
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			sum += o.WpFlow(samples[i], samples[j], 1)
		}
	}
	return sum / float64(k*(k-1)/2)
}

// WpFlow computes the exact p-Wasserstein distance between the empirical
// distributions of two samples by materializing the monotone coupling
// explicitly: both samples sorted, two mass pointers, each matched chunk
// contributing mass·|x−y|ᵖ. For p = 1 it is the flow-built counterpart of
// emd.Exact1DSorted's CDF sweep. Either sample empty yields 0.
func (Oracle) WpFlow(xs, ys []float64, p float64) float64 {
	if len(xs) == 0 || len(ys) == 0 {
		return 0
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)
	stepA := 1 / float64(len(a))
	stepB := 1 / float64(len(b))
	var (
		i, j    int
		remainA         = stepA
		remainB         = stepB
		total   float64 = 0
	)
	for i < len(a) && j < len(b) {
		m := remainA
		if remainB < m {
			m = remainB
		}
		total += m * math.Pow(math.Abs(a[i]-b[j]), p)
		remainA -= m
		remainB -= m
		if remainA <= 1e-15 {
			i++
			remainA = stepA
		}
		if remainB <= 1e-15 {
			j++
			remainB = stepB
		}
	}
	return math.Pow(total, 1/p)
}

// SetPartitions enumerates every partition of {0, …, n-1} into non-empty
// blocks by recursive insertion: element i either joins an existing block or
// opens a new one. Each result is a list of blocks, each block a sorted list
// of elements, blocks ordered by smallest element — a canonical form
// differential tests can key on. The count is the Bell number of n, so keep
// n small (n ≤ 10 is ~115975 partitions).
func (Oracle) SetPartitions(n int) [][][]int {
	if n <= 0 {
		return nil
	}
	var out [][][]int
	var blocks [][]int
	var walk func(i int)
	walk = func(i int) {
		if i == n {
			cp := make([][]int, len(blocks))
			for b := range blocks {
				cp[b] = append([]int(nil), blocks[b]...)
			}
			out = append(out, cp)
			return
		}
		for b := range blocks {
			blocks[b] = append(blocks[b], i)
			walk(i + 1)
			blocks[b] = blocks[b][:len(blocks[b])-1]
		}
		blocks = append(blocks, []int{i})
		walk(i + 1)
		blocks = blocks[:len(blocks)-1]
	}
	walk(0)
	return out
}

// Bell returns the Bell number B(n) — the number of set partitions of n
// elements — via the Bell triangle. B(0) = 1.
func (Oracle) Bell(n int) int {
	if n <= 0 {
		return 1
	}
	row := []int{1}
	for i := 1; i <= n; i++ {
		next := make([]int, 0, i+1)
		next = append(next, row[len(row)-1])
		for _, v := range row {
			next = append(next, next[len(next)-1]+v)
		}
		row = next
	}
	return row[0]
}

// BlockKey renders a set-partition block list canonically ("0,2|1|3"), for
// comparing enumerations that emit partitions in different orders.
func BlockKey(blocks [][]int) string {
	type kb struct {
		min int
		s   string
	}
	items := make([]kb, len(blocks))
	for i, b := range blocks {
		sorted := append([]int(nil), b...)
		sort.Ints(sorted)
		s := ""
		for k, v := range sorted {
			if k > 0 {
				s += ","
			}
			s += itoa(v)
		}
		min := math.MaxInt
		if len(sorted) > 0 {
			min = sorted[0]
		}
		items[i] = kb{min, s}
	}
	sort.Slice(items, func(a, b int) bool { return items[a].min < items[b].min })
	out := ""
	for i, it := range items {
		if i > 0 {
			out += "|"
		}
		out += it.s
	}
	return out
}

// itoa avoids strconv just for tiny non-negative block indices.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
