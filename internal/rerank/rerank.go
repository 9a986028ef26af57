// Package rerank implements serving-time fair re-ranking: given a ranked
// candidate pool and a protected attribute, each registered re-ranker
// re-orders candidates under a different fairness contract —
//
//   - "exposure-parity": the position-bias exposure each group receives
//     approaches its share of the candidate pool (demographic parity of
//     exposure, after Singh & Joachims' fairness-of-exposure, which the
//     paper cites), while bounding the score sacrificed at any position;
//   - "fair-topk": FA*IR (Zehlike et al.), every prefix of the page holds
//     at least the significance-tested minimum count of each group, via
//     binomial-CDF minimum-count tables with the multiple-testing-
//     corrected significance adjustment;
//   - "det-greedy" / "det-cons" / "det-relaxed": the LinkedIn Talent
//     Search interval-constrained re-rankers (Geyik et al.), every prefix
//     keeping each group's count within [floor(p·i), ceil(p·i)];
//   - "randomized": proxy-free seeded score perturbation (after
//     Kliachkin et al.) — the only re-ranker that never reads the
//     protected column, for when the attribute is unavailable or barred
//     from serving.
//
// Together with package repair this covers the paper's future work on
// "repairing bias in the context of ranking": repair fixes the scores,
// rerank fixes the result page.
package rerank

import (
	"errors"

	"fairrank/internal/dataset"
	"fairrank/internal/marketplace"
)

// errEmptyPool is shared by every re-ranker's pool validation.
var errEmptyPool = errors.New("rerank: empty ranking")

// Options configures the exposure-parity re-ranker.
type Options struct {
	// Epsilon is the maximum score a single position may sacrifice to
	// improve exposure balance: at each rank the fairest eligible
	// candidate is chosen only if their score is within Epsilon of the
	// best remaining candidate's. 0 reproduces the score-optimal order;
	// 1 ignores scores entirely.
	Epsilon float64
}

// ExposureParity re-ranks the given candidates. ranked must be the
// candidates to place (e.g. a top-k page, or the full population); Worker
// indices refer to rows of ds; attr is the protected attribute (by index
// into ds.Schema().Protected) whose groups should receive proportional
// exposure. The result has the same candidate set with fresh ranks, and
// is deterministic: groups are always scanned in value-code order, so two
// identical calls return identical pages even when scores tie.
func ExposureParity(ds *dataset.Dataset, attr int, ranked []marketplace.RankedWorker, opts Options) ([]marketplace.RankedWorker, error) {
	return exposureParity(ds, attr, ranked, len(ranked), opts)
}

// exposureParity places the first n positions of ExposureParity's
// re-ranking, which is all a served page needs: each placement
// reads only the positions before it, so the page is the whole
// re-ranking's n-prefix, at O(len(ranked)·log n + n·groups).
func exposureParity(ds *dataset.Dataset, attr int, ranked []marketplace.RankedWorker, n int, opts Options) ([]marketplace.RankedWorker, error) {
	if opts.Epsilon < 0 {
		return nil, errors.New("rerank: negative epsilon")
	}
	sp, err := splitPool(ds, attr, ranked, n)
	if err != nil {
		return nil, err
	}
	return exposurePage(sp, n, opts.Epsilon), nil
}

// exposurePage places a page of n candidates from a split pool.
func exposurePage(sp split, n int, epsilon float64) []marketplace.RankedWorker {
	groups := sp.queues
	share := make([]float64, len(groups))
	for g, cnt := range sp.counts {
		share[g] = float64(cnt) / float64(sp.size)
	}

	exposure := make([]float64, len(groups))
	totalExposure := 0.0
	out := make([]marketplace.RankedWorker, 0, n)
	for pos := 1; len(out) < n; pos++ {
		bias := marketplace.PositionBias(pos)
		// Best remaining candidate overall (for the epsilon bound).
		bestScore := -1.0
		for _, gs := range groups {
			if len(gs) > 0 && gs[0].Score > bestScore {
				bestScore = gs[0].Score
			}
		}
		// Most exposure-deprived group whose best candidate is eligible.
		// pick is only dereferenced once a first eligible group set it,
		// and the code-order scan makes every tie-break deterministic.
		pick := -1
		worstDeficit := 0.0
		for g, gs := range groups {
			if len(gs) == 0 || gs[0].Score < bestScore-epsilon {
				continue
			}
			deficit := float64(share[g]*(totalExposure+bias)) - exposure[g] // rounded: no multiply-add fuses
			switch {
			case pick < 0:
				pick, worstDeficit = g, deficit
			case deficit > worstDeficit,
				deficit == worstDeficit && gs[0].Score > groups[pick][0].Score:
				pick, worstDeficit = g, deficit
			}
		}
		if pick < 0 {
			// No group eligible under epsilon (only possible when the
			// deprived groups' candidates score too low): fall back to
			// the lowest-coded group holding the best remaining score.
			for g, gs := range groups {
				if len(gs) > 0 && gs[0].Score == bestScore {
					pick = g
					break
				}
			}
		}
		c := groups[pick][0]
		groups[pick] = groups[pick][1:]
		exposure[pick] += bias
		totalExposure += bias
		out = append(out, marketplace.RankedWorker{Worker: c.Worker, Score: c.Score, Rank: pos})
	}
	return out
}
