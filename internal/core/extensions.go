package core

import (
	"errors"
	"sort"
	"time"

	"fairrank/internal/histogram"
	"fairrank/internal/partition"
	"fairrank/internal/rng"
)

// Beam generalizes the balanced algorithm into a beam search: instead of
// committing to the single worst attribute each round, it keeps the `width`
// best frontier partitionings and expands each with every remaining
// attribute, returning the best partitioning ever seen. width = 1 explores
// the same path as Balanced (it may still return an earlier, better
// frontier). This is an extension beyond the paper, motivated by its
// observation that the greedy stopping condition can trap the search.
func Beam(e *Evaluator, attrs []int, width int) (*Result, error) {
	start := time.Now()
	if width < 1 {
		return nil, errors.New("core: beam width must be >= 1")
	}
	if attrs == nil {
		attrs = e.Attrs()
	}
	type state struct {
		st   *matState
		left []int
	}
	res := &Result{Algorithm: "beam"}
	frontier := []state{{st: newMatState(e, []*partition.Partition{e.searchRoot()}), left: attrs}}
	best := frontier[0]

	for {
		// Expand every (frontier state, remaining attribute) pair. The
		// expansions are independent incremental probes, so they fan out
		// across Config.Parallelism; results land at fixed slots and every
		// probe reduces in canonical order, keeping the search identical to
		// a serial run.
		type task struct {
			st   *matState
			a    int
			left []int
		}
		var tasks []task
		for _, s := range frontier {
			for _, a := range s.left {
				tasks = append(tasks, task{st: s.st, a: a, left: s.left})
			}
		}
		if len(tasks) == 0 {
			break
		}
		p := e.cfg.Parallelism
		inner := 1
		if p > len(tasks) {
			inner = p / len(tasks)
		}
		probes := make([]*matState, len(tasks))
		parforeach(len(tasks), p, func(i int) {
			probes[i] = tasks[i].st.probe(tasks[i].a, inner, true)
		})
		next := make([]state, len(tasks))
		for i, t := range tasks {
			next[i] = state{st: probes[i], left: remove(t.left, t.a)}
		}
		sort.Slice(next, func(i, j int) bool { return next[i].st.avg > next[j].st.avg })
		if len(next) > width {
			next = next[:width]
		}
		improved := false
		for _, s := range next {
			if s.st.avg > best.st.avg {
				best = s
				improved = true
			}
		}
		res.Steps = append(res.Steps, TraceStep{
			Attribute:   -1,
			AvgDistance: next[0].st.avg,
			Partitions:  len(next[0].st.parts),
			Accepted:    improved,
		})
		if !improved {
			break
		}
		frontier = next
	}
	res.Partitioning = &partition.Partitioning{Parts: e.rows.workerParts(best.st.parts)}
	res.Unfairness = best.st.avg
	res.Elapsed = time.Since(start)
	return res, nil
}

// Significance runs a permutation test of the hypothesis that the observed
// unfairness of a partitioning could arise with exchangeable scores: it
// shuffles the score column `rounds` times, recomputes the average pairwise
// distance over the same group sizes each time, and reports the fraction of
// shuffles at least as unfair as the observation (with the +1 correction,
// so the p-value is never exactly 0). A small p-value means the disparity
// is not explainable by sampling noise — a check the paper's point
// estimates do not provide.
func Significance(e *Evaluator, pt *partition.Partitioning, rounds int, seed uint64) (pValue, observed float64, err error) {
	if pt == nil || len(pt.Parts) == 0 {
		return 0, 0, errors.New("core: empty partitioning")
	}
	if rounds < 1 {
		return 0, 0, errors.New("core: need at least one permutation round")
	}
	if err := pt.Validate(e.ds); err != nil {
		return 0, 0, err
	}
	observed = e.Unfairness(pt)

	// Flatten group sizes; under the null, scores are exchangeable, so we
	// shuffle the score column and re-slice it into the same group sizes.
	sizes := make([]int, len(pt.Parts))
	for i, p := range pt.Parts {
		sizes[i] = p.Size()
	}
	scores := make([]float64, len(e.scores))
	copy(scores, e.scores)
	r := rng.New(seed)
	extreme := 0
	for round := 0; round < rounds; round++ {
		r.Shuffle(len(scores), func(i, j int) { scores[i], scores[j] = scores[j], scores[i] })
		if permutedUnfairness(scores, sizes, e.cfg.Bins, e) >= observed {
			extreme++
		}
	}
	pValue = (float64(extreme) + 1) / (float64(rounds) + 1)
	return pValue, observed, nil
}

// permutedUnfairness computes the average pairwise distance of a shuffled
// score column sliced into consecutive groups of the given sizes.
func permutedUnfairness(scores []float64, sizes []int, bins int, e *Evaluator) float64 {
	pmfs := make([][]float64, len(sizes))
	off := 0
	for g, n := range sizes {
		h := histogram.MustNew(bins, 0, 1)
		for i := off; i < off+n; i++ {
			h.Add(scores[i])
		}
		off += n
		pmfs[g] = h.PMF()
	}
	if len(pmfs) < 2 {
		return 0
	}
	sum, pairs := 0.0, 0
	for i := 0; i < len(pmfs); i++ {
		for j := i + 1; j < len(pmfs); j++ {
			sum += e.dist(pmfs[i], pmfs[j])
			pairs++
		}
	}
	return sum / float64(pairs)
}
