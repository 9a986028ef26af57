package marketplace

import (
	"errors"
	"math"
)

// NDCG computes the normalized discounted cumulative gain of a ranking
// against per-worker relevance values (e.g. the original scores, when
// measuring how much a repaired ranking sacrifices utility). The ranking's
// gain is discounted by position; the ideal ranking orders workers by
// relevance. Returns a value in [0,1]; 1 means the ranking is relevance-
// optimal. An all-zero relevance column yields NDCG 1 (nothing to gain).
func NDCG(relevance []float64, ranked []RankedWorker) (float64, error) {
	if len(ranked) == 0 {
		return 0, errors.New("marketplace: empty ranking")
	}
	dcg := 0.0
	for _, rw := range ranked {
		if rw.Worker < 0 || rw.Worker >= len(relevance) {
			return 0, errors.New("marketplace: ranked worker out of range")
		}
		dcg += relevance[rw.Worker] * PositionBias(rw.Rank)
	}
	// Ideal: the len(ranked) highest relevance values in order, from a
	// k-bounded selection, O(n log k).
	idcg := 0.0
	for i, rel := range TopK(relevance, len(ranked), descending) {
		idcg += rel * PositionBias(i+1)
	}
	if idcg == 0 {
		return 1, nil
	}
	return dcg / idcg, nil
}

// PageNDCG is NDCG for a page served from a candidate pool, measured
// against best, the pool's score-optimal page (TopPage) of at least as
// many candidates: a candidate's relevance is its pool score. Scores are
// read from the pages, so no per-worker relevance vector is built. When
// the pool's scores are non-negative — the platform's are clamped to
// [0, 1] — it equals NDCG over a relevance vector holding each pool
// member's score and 0 for every other worker, bit for bit.
func PageNDCG(page, best []RankedWorker) (float64, error) {
	if len(page) == 0 {
		return 0, errors.New("marketplace: empty ranking")
	}
	if len(best) < len(page) {
		return 0, errors.New("marketplace: ideal page shorter than the ranking")
	}
	dcg := 0.0
	for _, rw := range page {
		dcg += float64(rw.Score * PositionBias(rw.Rank)) // rounded: no multiply-add fuses
	}
	idcg := 0.0
	for i, rw := range best[:len(page)] {
		idcg += float64(rw.Score * PositionBias(i+1)) // rounded, as dcg's
	}
	if idcg == 0 {
		return 1, nil
	}
	return dcg / idcg, nil
}

// descending orders floats from largest to smallest.
func descending(a, b float64) int {
	switch {
	case a > b:
		return -1
	case a < b:
		return 1
	}
	return 0
}

// TopKOverlap returns the fraction of workers shared by the top-k prefixes
// of two rankings (Jaccard on the top-k sets). 1 means identical top-k
// membership; 0 means disjoint.
func TopKOverlap(a, b []RankedWorker, k int) (float64, error) {
	if k <= 0 {
		return 0, errors.New("marketplace: k must be positive")
	}
	if len(a) < k || len(b) < k {
		return 0, errors.New("marketplace: rankings shorter than k")
	}
	inA := map[int]bool{}
	for _, rw := range a[:k] {
		inA[rw.Worker] = true
	}
	shared := 0
	for _, rw := range b[:k] {
		if inA[rw.Worker] {
			shared++
		}
	}
	return float64(shared) / float64(2*k-shared), nil
}

// KendallTau computes the Kendall rank-correlation coefficient between two
// rankings of the same worker set: +1 for identical order, -1 for reversed,
// ~0 for unrelated. Workers present in only one ranking are ignored.
func KendallTau(a, b []RankedWorker) (float64, error) {
	posA := map[int]int{}
	for _, rw := range a {
		posA[rw.Worker] = rw.Rank
	}
	type pair struct{ ra, rb int }
	var common []pair
	for _, rw := range b {
		if ra, ok := posA[rw.Worker]; ok {
			common = append(common, pair{ra, rw.Rank})
		}
	}
	n := len(common)
	if n < 2 {
		return 0, errors.New("marketplace: need at least two common workers")
	}
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			x := common[i].ra - common[j].ra
			y := common[i].rb - common[j].rb
			switch {
			case x*y > 0:
				concordant++
			case x*y < 0:
				discordant++
			}
		}
	}
	total := n * (n - 1) / 2
	if total == 0 {
		return 0, nil
	}
	tau := float64(concordant-discordant) / float64(total)
	if math.IsNaN(tau) {
		return 0, errors.New("marketplace: degenerate rankings")
	}
	return tau, nil
}
