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
	// Ideal: the len(ranked) highest relevance values in order.
	top := topK(relevance, len(ranked))
	idcg := 0.0
	for i, rel := range top {
		idcg += rel * PositionBias(i+1)
	}
	if idcg == 0 {
		return 1, nil
	}
	return dcg / idcg, nil
}

// topK returns the k largest values of xs in descending order. It keeps
// the best k seen so far in a min-heap, O(n log k) time and k floats of
// space, then heap-sorts them in place. For finite input the top-k
// multiset in descending order is unique, so this is the same sequence a
// full sort of xs would prefix.
func topK(xs []float64, k int) []float64 {
	k = min(k, len(xs))
	if k <= 0 {
		return nil
	}
	h := make([]float64, 0, k)
	for _, x := range xs {
		switch {
		case len(h) < k:
			h = append(h, x)
			siftUp(h)
		case x > h[0]:
			h[0] = x
			siftDown(h)
		}
	}
	// Popping the minimum to the back each round leaves h descending.
	for end := k - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end])
	}
	return h
}

// siftUp restores the min-heap order of h after an append.
func siftUp(h []float64) {
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// siftDown restores the min-heap order of h after its root changed.
func siftDown(h []float64) {
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
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
