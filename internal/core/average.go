package core

import (
	"context"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"fairrank/internal/emd"
	"fairrank/internal/telemetry"
)

// This file computes Definition 2 — the average pairwise distance over a
// partitioning's parts — for every caller of the engine: the searches, the
// exhaustive solvers, Unfairness and AvgPairwise, and PValue.
//
// In binned mode under EMD, L1 and TV the average is exact (identityAvg).
// Over equally spaced bins, EMD(P, Q) = unit·Σ_b |F_b − G_b| over the two
// CDFs, L1 is Σ_b |p_b − q_b| over the PMFs and TV half of that, so the
// sum over all pairs is, bin by bin, a sum of |x_i − x_j| over one column
// x of k values: a part's rep holds that column (the CDF under EMD, the
// PMF under L1 and TV; payload). With the column sorted ascending,
//
//	Σ_{i<j} |x_i − x_j| = Σ_r x₍ᵣ₎·(2r − k + 1),
//
// an O(k log k) sum per bin instead of O(k²) pairs. It is summed in
// integers, exactly:
//
//   - Every column value is 0 or one correctly rounded division c/n with
//     1 ≤ c ≤ n < 2³² (an empty part's uniform column divides by bins,
//     also below 2³²), so it lies in {0} ∪ [2⁻³², 1]. A float64 in
//     [2⁻³², 1] is a multiple of its ulp, which is at least 2⁻³²⁻⁵² =
//     2⁻⁸⁴, so X = x·2⁸⁴ is an integer, at most 2⁸⁴.
//   - The weight |2r − k + 1| is at most k − 1 < 2³² (k < 2³² is
//     checked), so each term X·(2r − k + 1) is below 2¹¹⁷ in magnitude.
//   - There are bins·k terms, fewer than 2⁶³ (bins < 2³¹), so every
//     partial sum is below 2¹⁸⁰ in magnitude and the 192-bit two's
//     complement accumulator (wide) holds it exactly.
//
// The average is then N / (d · k(k−1)/2 · 2⁸⁴), with unit = 1/d, rounded
// once to nearest-even (ratio): d is bins under GroundScore, bins − 1
// under GroundIndex, 1 for L1 and 2 for TV. So two averages that are
// equal as exact rationals of their columns are the same float64, and
// the result depends only on the multiset of columns: not on part order,
// Config.Parallelism, the dataset's backing or the architecture, since
// no float sum is left to fuse.
//
// Exact mode and the KS, JS, χ² and Hellinger metrics take the pair path:
// every pair distance through distOf, summed in (i, j) slot order
// (finalAvg). The exhaustive solvers look their pairs up in a per-run memo
// instead (exhaustive.go) and add the same distances in the same order,
// so their bits agree.

// identityDenominator returns d of the identity's unit = 1/d for cfg, and
// whether cfg's averages take the identity at all.
func identityDenominator(cfg Config) (d uint64, ok bool) {
	if cfg.Exact {
		return 0, false
	}
	switch cfg.Metric {
	case emd.MetricEMD:
		if cfg.Ground == emd.GroundIndex {
			// One bin has no distance between bins: d = 0, and every
			// average is 0.
			return uint64(cfg.Bins - 1), true
		}
		return uint64(cfg.Bins), true
	case emd.MetricL1:
		return 1, true
	case emd.MetricTV:
		return 2, true
	}
	return 0, false
}

// average is Definition 2 over the parts whose reps are given: their
// average pairwise distance, 0 for fewer than two. Under the identity it
// is exact; on the pair path workers bounds the concurrent fill. The pair
// path polls ctx and its result is meaningless once ctx is done. The
// average runs in an "emd" span under ctx.
func (e *Evaluator) average(ctx context.Context, reps []*rep, workers int) float64 {
	_, sp := telemetry.StartSpan(ctx, "emd")
	defer sp.End()
	sp.SetInt("parts", int64(len(reps)))
	if e.ident {
		return e.identityAvg(reps)
	}
	return e.finalAvg(ctx, reps, workers, finalBlock)
}

// identityAvg is the exact average of the reps' columns (see the top of
// this file). Its one allocation is the column buffer.
func (e *Evaluator) identityAvg(reps []*rep) float64 {
	k := len(reps)
	if k < 2 || e.den == 0 {
		return 0
	}
	if uint64(k) >= 1<<32 {
		panic("core: 2³² parts or more overflow the exact average")
	}
	col := make([]uint64, k)
	var n wide
	for b := range e.cfg.Bins {
		for i, r := range reps {
			// Non-negative floats order as their bit patterns.
			col[i] = math.Float64bits(r.data[b])
		}
		slices.Sort(col)
		for r, x := range col {
			if x != 0 {
				n.addTerm(x, int64(2*r-k+1))
			}
		}
	}
	return ratio(n, e.den, uint64(k)*uint64(k-1)/2)
}

// wide is a 192-bit two's complement integer, least significant word
// first.
type wide [3]uint64

// addTerm adds X·w to a, where X = x·2⁸⁴ for the float64 whose bits are
// xb, in (0, 1] and at least 2⁻³², and |w| < 2³².
func (a *wide) addTerm(xb uint64, w int64) {
	// x = m·2^(exp−1075) with the implicit bit set in m < 2⁵³, so
	// X = m·2^s with s = exp − 991 in [0, 32].
	exp := xb >> 52
	if exp < 991 || exp > 1023 {
		panic("core: a column value lies outside {0} ∪ [2⁻³², 1]")
	}
	s := exp - 991
	m := xb&(1<<52-1) | 1<<52
	aw := uint64(w)
	if w < 0 {
		aw = uint64(-w)
	}
	hi, lo := bits.Mul64(m, aw)
	hi, lo = hi<<s|lo>>(64-s), lo<<s
	var c uint64
	if w > 0 {
		a[0], c = bits.Add64(a[0], lo, 0)
		a[1], c = bits.Add64(a[1], hi, c)
		a[2] += c
	} else {
		a[0], c = bits.Sub64(a[0], lo, 0)
		a[1], c = bits.Sub64(a[1], hi, c)
		a[2] -= c
	}
}

func (a wide) bitLen() int {
	for i := 2; i >= 0; i-- {
		if a[i] != 0 {
			return 64*i + bits.Len64(a[i])
		}
	}
	return 0
}

func (a wide) shl(s int) wide {
	for ; s >= 64; s -= 64 {
		a = wide{0, a[0], a[1]}
	}
	if s > 0 {
		a = wide{a[0] << s, a[1]<<s | a[0]>>(64-s), a[2]<<s | a[1]>>(64-s)}
	}
	return a
}

func (a wide) shr(s int) wide {
	for ; s >= 64; s -= 64 {
		a = wide{a[1], a[2], 0}
	}
	if s > 0 {
		a = wide{a[0]>>s | a[1]<<(64-s), a[1]>>s | a[2]<<(64-s), a[2] >> s}
	}
	return a
}

// div divides a by d > 0 in place and returns the remainder.
func (a *wide) div(d uint64) (rem uint64) {
	for i := 2; i >= 0; i-- {
		a[i], rem = bits.Div64(rem, a[i], d)
	}
	return rem
}

// ratio returns n / (d·p·2⁸⁴) rounded once to nearest-even, for n ≥ 0
// below 2¹⁸⁰, d ≥ 1 and 1 ≤ p < 2⁶³. d·p may pass 2⁶⁴, so n is divided
// by d and then by p: that gives the quotient of one division by d·p, and
// a remainder that is zero exactly when both remainders are.
func ratio(n wide, d, p uint64) float64 {
	nl := n.bitLen()
	if nl == 0 {
		return 0
	}
	// Shift n up so the quotient has at least 54 bits: 53 for the result
	// and one to round on. The shifted n stays below 2¹⁸¹.
	sh := max(0, 54+bits.Len64(d)+bits.Len64(p)-nl)
	n = n.shl(sh)
	r1 := n.div(d)
	r2 := n.div(p)
	cut := n.bitLen() - 54
	top := n.shr(cut)
	t := top[0] // the quotient's top 54 bits
	sticky := r1 != 0 || r2 != 0 || top.shl(cut) != n
	m := t >> 1
	if t&1 == 1 && (sticky || m&1 == 1) {
		m++
	}
	// m·2^(cut+1) approximates the quotient, and the quotient is the
	// result scaled by 2^(sh+84). m = 2⁵³ after a carry is exact too.
	return math.Ldexp(float64(m), cut+1-sh-84)
}

// finalBlock is the slot count of finalAvg's one reused buffer: 512 KB.
const finalBlock = 1 << 16

// finalAvg is the pair path's average over reps, filled from scratch
// without keeping a triangle. It walks the triangle's slots block by
// block, at most block at a time: each block's rows (or row pieces) fill
// in parallel under workers into one reused buffer through distOf, then
// the block is added to a running sum in slot order. So every distance is
// added in (i, j) order, as a serial sum over all pairs would add it.
// Every pair counts as computed. The fill polls ctx (which may be nil)
// and stops promptly once it is done; the result is then meaningless.
func (e *Evaluator) finalAvg(ctx context.Context, reps []*rep, workers, block int) float64 {
	k := len(reps)
	n := k * (k - 1) / 2
	if n == 0 {
		return 0
	}
	done := func() bool { return ctx != nil && ctx.Err() != nil }
	e.countPairs(int64(n))
	// A piece is the run of one row that falls in the current block.
	type piece struct{ i, j, off, n int }
	var pieces []piece
	buf := make([]float64, min(n, block))
	sum := 0.0
	i, j := 0, 1 // the next block's first pair
	for m := 0; m < n; m += block {
		if done() {
			return 0
		}
		b := buf[:min(block, n-m)]
		pieces = pieces[:0]
		for off := 0; off < len(b); {
			run := min(k-j, len(b)-off)
			pieces = append(pieces, piece{i, j, off, run})
			off += run
			if j += run; j == k {
				i++
				j = i + 1
			}
		}
		parforeach(len(pieces), workers, func(x int) {
			pc := pieces[x]
			out := b[pc.off : pc.off+pc.n]
			ri := reps[pc.i].data
			for y := range out {
				if y&(ctxCheckStride-1) == ctxCheckStride-1 && done() {
					return
				}
				out[y] = e.distOf(ri, reps[pc.j+y].data)
			}
		})
		for _, v := range b {
			sum += v
		}
	}
	return sum / float64(n)
}

// parforeach runs fn(i) for every i in [0, n) across at most `workers`
// goroutines via a shared work counter; inline when workers <= 1.
func parforeach(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
