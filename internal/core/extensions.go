package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"fairrank/internal/rng"
)

// Beam generalizes the balanced algorithm into a beam search: instead of
// committing to the single worst attribute each round, it keeps the `width`
// best frontier partitionings and expands each with every remaining
// attribute, returning the best partitioning ever seen. width = 1 explores
// the same path as balanced (it may still return an earlier, better
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
	res.rows = best.st.parts
	res.Unfairness = best.st.avg
	res.Elapsed = time.Since(start)
	return e.done(res), nil
}

// PValue runs a permutation test of the hypothesis that the observed
// unfairness of a partitioning could arise with exchangeable scores: it
// shuffles the score column `rounds` times, recomputes the average
// pairwise distance over the same group sizes each time, and reports the
// fraction of shuffles at least as unfair as the observation (with the +1
// correction, so the p-value is never exactly 0). A small p-value means
// the disparity is not explainable by sampling noise — a check the paper's
// point estimates do not provide. The sizes must sum to the evaluator's
// worker count; a Search or Run result gives them (PartSizes) and its
// Unfairness is the observed value, so a caller tests its result without
// listing a worker. It polls ctx every round and returns ctx.Err() once
// ctx is done.
//
// Under the null the scores are exchangeable, so each round shuffles the
// worker order and cuts it into groups of the given sizes, in order. The
// shuffle acts on a copy of the bin column (Exact mode: the score column)
// itself, with the draws rng.Shuffle makes for a shuffle of worker ids,
// so the values a group's slice holds are the bins (scores) of the
// workers the shuffled ids would have given it. Each group is built and
// compared the way the observed partitions are (payload, or a sorted
// sample in Exact mode), so the two sides of the test measure the same
// quantity.
func PValue(ctx context.Context, e *Evaluator, sizes []int, observed float64, rounds int, seed uint64) (float64, error) {
	if rounds < 1 {
		return 0, errors.New("core: need at least one permutation round")
	}
	total := 0
	for _, n := range sizes {
		if n < 0 {
			return 0, fmt.Errorf("core: a group of %d workers", n)
		}
		total += n
	}
	if len(sizes) == 0 || total != e.ds.N() {
		return 0, fmt.Errorf("core: %d groups of %d workers in all, for %d workers", len(sizes), total, e.ds.N())
	}
	reps := make([]*rep, len(sizes))
	for g := range reps {
		reps[g] = &rep{}
	}
	// swap shuffles the column; fill builds each group's payload from its
	// slice of the shuffled column, into buffers reused every round.
	var swap func(i, j int)
	var fill func()
	if e.cfg.Exact {
		col, sample := slices.Clone(e.scores), make([]float64, e.ds.N())
		swap = func(i, j int) { col[i], col[j] = col[j], col[i] }
		fill = func() {
			copy(sample, col)
			off := 0
			for g, n := range sizes {
				s := sample[off : off+n]
				sort.Float64s(s)
				reps[g].data = s
				off += n
			}
		}
	} else {
		bins := e.cfg.Bins
		col, counts := slices.Clone(e.bin), make([]float64, len(sizes)*bins)
		swap = func(i, j int) { col[i], col[j] = col[j], col[i] }
		fill = func() {
			clear(counts)
			off := 0
			for g, n := range sizes {
				c := counts[g*bins : (g+1)*bins]
				for _, b := range col[off : off+n] {
					c[b]++
				}
				reps[g].data = e.payload(c)
				off += n
			}
		}
	}
	r := rng.New(seed)
	extreme := 0
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		r.Shuffle(e.ds.N(), swap)
		fill()
		if e.average(ctx, reps, e.cfg.Parallelism) >= observed {
			extreme++
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return (float64(extreme) + 1) / (float64(rounds) + 1), nil
}
