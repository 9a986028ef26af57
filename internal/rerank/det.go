package rerank

import (
	"fairrank/internal/dataset"
	"fairrank/internal/marketplace"
)

// This file implements the LinkedIn Talent Search deterministic
// re-rankers (Geyik, Ambler & Kenthapadi, "Fairness-Aware Ranking in
// Search & Recommendation Systems with Application to LinkedIn Talent
// Search", KDD 2019): interval constraints that keep every prefix of the
// page representative of the candidate pool. With p_g the pool share of
// group g, a page is feasible when every prefix of length i holds
// between floor(p_g·i) and ceil(p_g·i) members of each group.
//
// All interval arithmetic is integer-exact: p_g = cnt_g/n, so
// floor(p_g·i) = (cnt_g·i)/n and ceil(p_g·i) = (cnt_g·i + n - 1)/n in
// integer division — the intervals depend only on pool shares, never on
// scores (the score-translation metamorphic invariant).
//
// The three variants share a skeleton and differ only in how they choose
// among groups when no minimum is violated, each with the deterministic
// tie-break cascade (score desc, then worker index asc, then group code
// asc — the code-order scan supplies the last level for free):
//
//   - det-greedy: the best-scored head among groups still below their
//     prefix maximum;
//   - det-cons: the group whose fractional representation is furthest
//     behind — minimal (count_g+1)/p_g — among groups below maximum;
//   - det-relaxed: like det-cons but on the integer next-deadline
//     ceil((count_g+1)/p_g), taking the best-scored head among ties.
//
// Geyik et al. prove all three feasible for up to three groups;
// det-greedy can violate a ceiling with four or more (the differential
// suite pins the ≤3-group guarantee and documents the relaxation).

type detVariant int

const (
	detGreedy detVariant = iota
	detCons
	detRelaxed
)

// detState carries the shared per-position bookkeeping of one Det* run.
type detState struct {
	queues [][]marketplace.RankedWorker
	cnt    []int // pool count per group (fixed)
	counts []int // placed so far per group
	n      int   // pool size
}

// minAt / maxAt are the interval bounds of group g at prefix length i.
func (s *detState) minAt(g, i int) int { return s.cnt[g] * i / s.n }
func (s *detState) maxAt(g, i int) int { return (s.cnt[g]*i + s.n - 1) / s.n }

// better reports whether group a's head beats group b's head on the
// score-then-worker tie-break cascade (b < 0 means "no pick yet").
func (s *detState) better(a, b int) bool {
	if b < 0 {
		return true
	}
	return marketplace.ByScore(s.queues[a][0], s.queues[b][0]) < 0
}

func detReranker(variant detVariant) Func {
	return func(ds *dataset.Dataset, attr int, pool []marketplace.RankedWorker, k int, p Params) ([]marketplace.RankedWorker, error) {
		n := pageSize(k, len(pool))
		sp, err := splitPool(ds, attr, pool, n)
		if err != nil {
			return nil, err
		}
		return detPage(sp, n, variant), nil
	}
}

// detPage places a page of n candidates from a split pool.
func detPage(sp split, n int, variant detVariant) []marketplace.RankedWorker {
	s := &detState{
		queues: sp.queues,
		cnt:    sp.counts,
		counts: make([]int, len(sp.queues)),
		n:      sp.size,
	}
	out := make([]marketplace.RankedWorker, 0, n)
	for pos := 1; pos <= n; pos++ {
		// Groups below their prefix minimum must be served first:
		// skipping one would leave prefix pos short of its floor.
		pick := -1
		for g, q := range s.queues {
			if len(q) > 0 && s.counts[g] < s.minAt(g, pos) && s.better(g, pick) {
				pick = g
			}
		}
		if pick < 0 {
			pick = s.pickVariant(variant, pos)
		}
		if pick < 0 {
			// Every group with candidates sits at its ceiling (or the
			// below-ceiling groups are exhausted): relax the ceiling
			// rather than truncate the page — the constraints are
			// vacuous for groups whose pool ran dry.
			for g, q := range s.queues {
				if len(q) > 0 && s.better(g, pick) {
					pick = g
				}
			}
		}
		c := s.queues[pick][0]
		s.queues[pick] = s.queues[pick][1:]
		s.counts[pick]++
		out = append(out, marketplace.RankedWorker{Worker: c.Worker, Score: c.Score, Rank: pos})
	}
	return out
}

// pickVariant chooses among the groups still below their prefix-pos
// ceiling, per the variant's rule. Returns -1 when no such group has
// candidates left.
func (s *detState) pickVariant(variant detVariant, pos int) int {
	pick := -1
	for g, q := range s.queues {
		if len(q) == 0 || s.counts[g] >= s.maxAt(g, pos) {
			continue
		}
		switch variant {
		case detGreedy:
			if s.better(g, pick) {
				pick = g
			}
		case detCons:
			// Minimize (counts+1)/p_g, i.e. (counts_g+1)·n/cnt_g;
			// compared exactly by cross-multiplication.
			if pick < 0 {
				pick = g
				continue
			}
			lhs := (s.counts[g] + 1) * s.cnt[pick]
			rhs := (s.counts[pick] + 1) * s.cnt[g]
			if lhs < rhs || (lhs == rhs && s.better(g, pick)) {
				pick = g
			}
		case detRelaxed:
			// Minimize the integer position at which the group's floor
			// next binds: ceil((counts_g+1)·n / cnt_g).
			if pick < 0 {
				pick = g
				continue
			}
			next := func(h int) int {
				return ((s.counts[h]+1)*s.n + s.cnt[h] - 1) / s.cnt[h]
			}
			ng, np := next(g), next(pick)
			if ng < np || (ng == np && s.better(g, pick)) {
				pick = g
			}
		}
	}
	return pick
}
