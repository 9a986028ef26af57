// Package repair implements score repair — the paper's stated future work
// of "repairing bias in the context of ranking in online job marketplaces".
//
// Given the most unfair partitioning found by the audit, Repair aligns each
// partition's score distribution with the global score distribution by
// quantile matching (the mechanism behind disparate-impact removal à la
// Feldman et al.): each worker's score is moved toward the global score at
// the worker's within-partition quantile. The Amount parameter trades
// fairness against score fidelity: 0 leaves scores untouched, 1 fully
// equalizes distributions. Within-partition ranking is preserved, so the
// relative ordering of comparable workers never changes.
package repair

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"fairrank/internal/partition"
)

// Scores applies quantile-matching repair. scores holds one score in [0,1]
// per worker; pt must be a full disjoint partitioning of exactly those
// workers. amount in [0,1] interpolates between the original (0) and fully
// repaired (1) scores. The returned slice is new; the input is not mutated.
func Scores(scores []float64, pt *partition.Partitioning, amount float64) ([]float64, error) {
	if len(scores) == 0 {
		return nil, errors.New("repair: no scores")
	}
	if pt == nil || len(pt.Parts) == 0 {
		return nil, errors.New("repair: empty partitioning")
	}
	if amount < 0 || amount > 1 || math.IsNaN(amount) {
		return nil, fmt.Errorf("repair: amount %v outside [0,1]", amount)
	}
	covered := 0
	for _, p := range pt.Parts {
		for _, i := range p.Indices {
			if i < 0 || i >= len(scores) {
				return nil, fmt.Errorf("repair: partition index %d out of range", i)
			}
			covered++
		}
	}
	if covered != len(scores) {
		return nil, fmt.Errorf("repair: partitioning covers %d of %d workers", covered, len(scores))
	}

	global := make([]float64, len(scores))
	copy(global, scores)
	sort.Float64s(global)

	out := make([]float64, len(scores))
	copy(out, scores)
	for _, p := range pt.Parts {
		members := make([]int, len(p.Indices))
		copy(members, p.Indices)
		// Sort members by original score (worker index as tiebreak) to
		// obtain within-partition ranks.
		sort.Slice(members, func(a, b int) bool {
			if scores[members[a]] != scores[members[b]] {
				return scores[members[a]] < scores[members[b]]
			}
			return members[a] < members[b]
		})
		k := len(members)
		for r, w := range members {
			q := (float64(r) + 0.5) / float64(k)
			target := quantile(global, q)
			// Each product is rounded before the add: no multiply-add fuses.
			out[w] = float64((1-amount)*scores[w]) + float64(amount*target)
		}
	}
	return out, nil
}

// quantile interpolates the q-quantile of an already sorted sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := float64(q * float64(len(sorted)-1)) // rounded: no multiply-add fuses
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac) // rounded, as pos
}
