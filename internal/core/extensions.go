package core

import (
	"context"
	"errors"
	"sort"
	"time"

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
	frontier := []state{{st: e.rootState(nil), left: attrs}}
	best := frontier[0]

	for {
		// Expand every (frontier state, remaining attribute) pair. The
		// expansions are independent probes, so they fan out across
		// Config.Parallelism; results land at fixed slots and every probe's
		// average is the same at any parallelism, keeping the search
		// identical to a serial run. Only the states the beam keeps build
		// their parts.
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
			probes[i] = tasks[i].st.probe(nil, tasks[i].a, inner)
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
			s.st.built()
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
	res.Partitioning = &partition.Partitioning{Parts: e.workerParts(best.st.parts)}
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
// estimates do not provide. It polls ctx every round and returns ctx.Err()
// once ctx is done.
func Significance(ctx context.Context, e *Evaluator, pt *partition.Partitioning, rounds int, seed uint64) (pValue, observed float64, err error) {
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
	// shuffle the worker order and re-slice it into the same group sizes.
	// Each group is built and compared the way the observed partitions are
	// (payload, or a sorted sample in Exact mode), so the two sides of the
	// test measure the same quantity.
	sizes := make([]int, len(pt.Parts))
	for i, p := range pt.Parts {
		sizes[i] = p.Size()
	}
	perm := make([]int, e.ds.N())
	for i := range perm {
		perm[i] = i
	}
	reps := make([]*rep, len(sizes))
	r := rng.New(seed)
	extreme := 0
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		off := 0
		for g, n := range sizes {
			reps[g] = &rep{data: e.buildData(perm[off : off+n])}
			off += n
		}
		if e.average(ctx, reps, e.cfg.Parallelism) >= observed {
			extreme++
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	pValue = (float64(extreme) + 1) / (float64(rounds) + 1)
	return pValue, observed, nil
}
