package rerank

import (
	"fmt"
	"math"
	"slices"

	"fairrank/internal/dataset"
	"fairrank/internal/marketplace"
	"fairrank/internal/rng"
)

// This file implements the "randomized" re-ranker: score perturbation as
// a proxy-free fairness intervention (after Kliachkin et al., "Fairness
// in Ranking under Disparate Uncertainty", arXiv:2403.19419, and the
// randomized-ranking line of work it surveys). Unlike every other
// registered re-ranker it NEVER reads the protected column — it cannot,
// by construction, because it never touches the dataset at all. Fairness
// comes from breaking the ranking's determinism: when group membership
// correlates with small score differences (the paper's EMD audits find
// exactly this shape), jittering scores by a bounded amount lets
// lower-scored groups surface into top pages in proportion to how close
// their scores are, without anyone having to name — or even measure —
// the disadvantaged group. That makes it the mitigation of choice when
// the protected attribute is unavailable, unreliable, or illegal to use
// at serving time; the drift scenario (internal/simulate) runs it
// against det-greedy to quantify what that blindness costs in detection
// latency and steady-state unfairness.
//
// Determinism contract: the jitter is seeded (Params.Seed), and noise is
// assigned by canonical pool position (score desc, worker asc) before
// re-sorting — so two identical calls return identical pages, and the
// input pool's order cannot leak into the result (permutation
// invariance, same as every other re-ranker).
//
// Only a canonical prefix can reach a page of n. Noise lies in [−A, A]
// and rounding is monotone, so a candidate's perturbed score lies in
// [fl(score − A), fl(score + A)]. The n best canonical candidates all
// perturb to at least fl(s_n − A), s_n being the n-th best score, so a
// candidate with fl(score + A) < fl(s_n − A) has n candidates strictly
// above it and cannot make the page. The rest are a canonical prefix
// (fl(score + A) never falls as score rises), so they draw the same noise
// a whole pool would, in the same order, and the page selected from them
// by perturbed score is the whole pool's.
//
// Displacement bound: with amplitude A = Spread·range/2, candidate i can
// finish below candidate j only if score_i − score_j < 2A = Spread·range.
// Spread therefore directly caps how far any candidate can sink or rise:
// the test suite pins rank_i ≥ 1 + #{j: score_j > score_i + Spread·range}
// and the mirror upper bound.

// DefaultSpread is the jitter amplitude used when Params.Spread is 0:
// noise spans ±5% of the pool's score range.
const DefaultSpread = 0.1

func init() {
	Register("randomized", Randomized)
}

// Randomized re-ranks by seeded bounded score perturbation. attr and the
// dataset's protected columns are deliberately ignored — see the file
// comment — so it works even when attr < 0 (no protected attribute
// supplied). ds may be nil; only the pool is consulted.
func Randomized(ds *dataset.Dataset, attr int, pool []marketplace.RankedWorker, k int, p Params) ([]marketplace.RankedWorker, error) {
	if len(pool) == 0 {
		return nil, errEmptyPool
	}
	spread := p.Spread
	if spread == 0 {
		spread = DefaultSpread
	}
	if math.IsNaN(spread) || spread < 0 || spread > 1 {
		return nil, fmt.Errorf("rerank: spread %v out of range [0, 1]", p.Spread)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, rw := range pool {
		if math.IsNaN(rw.Score) || math.IsInf(rw.Score, 0) {
			return nil, fmt.Errorf("rerank: worker %d has non-finite score", rw.Worker)
		}
		lo, hi = math.Min(lo, rw.Score), math.Max(hi, rw.Score)
	}
	// Uniform noise in ±A with A = spread·range/2. A constant-score pool
	// has range 0: the jitter is a no-op and the canonical order serves.
	// Rounded, so no add below fuses with its product.
	amp := float64(0.5 * spread * (hi - lo))
	n := pageSize(k, len(pool))
	// s_n, the n-th best score, is the lowest when the page is the pool.
	sn := lo
	if n < len(pool) {
		sn = marketplace.TopK(pool, n, marketplace.ByScore)[n-1].Score
	}
	// Canonical order first: noise is a function of (seed, canonical
	// position), never of the caller's pool order. Only the prefix that
	// can reach the page is sorted (see the file comment).
	floor := sn - amp
	size := 0
	for _, rw := range pool {
		if rw.Score+amp >= floor {
			size++
		}
	}
	cands := make([]marketplace.RankedWorker, 0, size)
	for _, rw := range pool {
		if rw.Score+amp >= floor {
			cands = append(cands, rw)
		}
	}
	slices.SortFunc(cands, marketplace.ByScore)
	r := rng.New(p.Seed)
	perturbed := make([]float64, len(cands))
	order := make([]int, len(cands))
	for i := range cands {
		// Each product is rounded before its add: no multiply-add fuses.
		perturbed[i] = cands[i].Score + float64(amp*(float64(2*r.Float64())-1))
		order[i] = i
	}
	order = marketplace.TopK(order, n, func(a, b int) int {
		switch {
		case perturbed[a] > perturbed[b]:
			return -1
		case perturbed[a] < perturbed[b]:
			return 1
		}
		return cands[a].Worker - cands[b].Worker
	})
	out := make([]marketplace.RankedWorker, n)
	for pos, i := range order {
		out[pos] = marketplace.RankedWorker{Worker: cands[i].Worker, Score: cands[i].Score, Rank: pos + 1}
	}
	return out, nil
}
