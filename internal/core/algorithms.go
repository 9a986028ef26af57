package core

import (
	"context"
	"time"

	"fairrank/internal/partition"
	"fairrank/internal/rng"
)

// Result is the outcome of running one algorithm.
type Result struct {
	// Algorithm is the canonical algorithm name (e.g. "balanced").
	Algorithm string
	// Partitioning is the most unfair partitioning found.
	Partitioning *partition.Partitioning
	// Unfairness is the average pairwise distance of Partitioning.
	Unfairness float64
	// Elapsed is the wall-clock time the algorithm took.
	Elapsed time.Duration
	// Steps traces the splitting decisions for explainability.
	Steps []TraceStep
	// Stats reports the engine work this run performed; populated by
	// Run, zero when an algorithm function is called directly.
	Stats RunStats
}

// TraceStep records one splitting decision.
type TraceStep struct {
	// Attribute is the protected attribute index split on (-1 for the
	// final stop decision).
	Attribute int
	// AvgDistance is the average pairwise distance after the split.
	AvgDistance float64
	// Partitions is the partition count after the split.
	Partitions int
	// Accepted reports whether the split improved unfairness and was kept.
	Accepted bool
}

// chooser selects the attribute to split a state's partitions on, returning
// the attribute and the incrementally evaluated state after splitting every
// partition on it.
type chooser func(s *matState, attrs []int) (attr int, children *matState)

// worstAttribute is the paper's greedy choice: probe every remaining
// attribute (concurrently, under Config.Parallelism) and keep the one whose
// split yields the highest average pairwise distance. Ties break toward the
// lowest attribute index, making runs deterministic regardless of the scan
// order.
func worstAttribute(s *matState, attrs []int) (int, *matState) {
	probes := s.probeAll(attrs)
	best := 0
	for x := 1; x < len(probes); x++ {
		if probes[x].avg > probes[best].avg {
			best = x
		}
	}
	return attrs[best], probes[best]
}

// randomAttribute is the baseline choice used by r-balanced and
// r-unbalanced: a uniformly random remaining attribute. A single random
// candidate offers nothing to prune, but where the pruning cascade runs
// the probe routes through the lean allocation-free fill (probeLean) so
// the random baselines share the pruned runs' constant factors.
func randomAttribute(r *rng.RNG) chooser {
	return func(s *matState, attrs []int) (int, *matState) {
		a := attrs[r.Intn(len(attrs))]
		if s.e.prune {
			return a, s.probeLean(a, s.e.cfg.Parallelism)
		}
		return a, s.probe(a, s.e.cfg.Parallelism, true)
	}
}

// remove returns attrs without a (non-destructively).
func remove(attrs []int, a int) []int {
	out := make([]int, 0, len(attrs)-1)
	for _, x := range attrs {
		if x != a {
			out = append(out, x)
		}
	}
	return out
}

// Balanced runs Algorithm 1: repeatedly split every current partition on
// the worst remaining attribute, stopping when the average pairwise
// distance no longer improves. attrs nil means all protected attributes.
//
// Balanced, Unbalanced and the other exported algorithm functions are the
// uncancellable direct entry points; session consumers go through Run,
// which adds context cancellation, progress callbacks and per-run stats.
func Balanced(e *Evaluator, attrs []int) *Result {
	res, _ := balancedWith(context.Background(), e, attrs, e.worstChooser(), "balanced", nil)
	return res
}

// RBalanced is Balanced with random attribute choice (baseline).
func RBalanced(e *Evaluator, attrs []int, r *rng.RNG) *Result {
	res, _ := balancedWith(context.Background(), e, attrs, randomAttribute(r), "r-balanced", nil)
	return res
}

func balancedWith(ctx context.Context, e *Evaluator, attrs []int, choose chooser, name string, progress func(TraceStep)) (*Result, error) {
	start := time.Now()
	if attrs == nil {
		attrs = e.Attrs()
	}
	res := &Result{Algorithm: name}
	emit := func(step TraceStep) {
		res.Steps = append(res.Steps, step)
		if progress != nil {
			progress(step)
		}
	}
	state := newMatState(e, []*partition.Partition{e.searchRoot()})
	state.ctx = ctx
	if len(attrs) == 0 {
		res.Partitioning = &partition.Partitioning{Parts: e.rows.workerParts(state.parts)}
		res.Elapsed = time.Since(start)
		return res, nil
	}

	// First split is unconditional (lines 1–4 of Algorithm 1).
	a, children := choose(state, attrs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	attrs = remove(attrs, a)
	state = children
	emit(TraceStep{Attribute: a, AvgDistance: children.avg, Partitions: len(children.parts), Accepted: true})

	for len(attrs) > 0 {
		a, children := choose(state, attrs)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		attrs = remove(attrs, a)
		step := TraceStep{Attribute: a, AvgDistance: children.avg, Partitions: len(children.parts)}
		if state.avg >= children.avg {
			emit(step)
			break
		}
		step.Accepted = true
		emit(step)
		state = children
	}
	res.Partitioning = &partition.Partitioning{Parts: e.rows.workerParts(state.parts)}
	res.Unfairness = state.avg
	res.Elapsed = time.Since(start)
	return res, nil
}

// Unbalanced runs Algorithm 2: after an initial split on the worst
// attribute, each partition locally decides whether replacing itself by its
// children (split on its locally worst attribute) increases the average
// pairwise distance against its siblings. attrs nil means all protected
// attributes.
func Unbalanced(e *Evaluator, attrs []int) *Result {
	res, _ := unbalancedWith(context.Background(), e, attrs, e.worstChooser(), "unbalanced", nil)
	return res
}

// RUnbalanced is Unbalanced with random attribute choice (baseline).
func RUnbalanced(e *Evaluator, attrs []int, r *rng.RNG) *Result {
	res, _ := unbalancedWith(context.Background(), e, attrs, randomAttribute(r), "r-unbalanced", nil)
	return res
}

func unbalancedWith(ctx context.Context, e *Evaluator, attrs []int, choose chooser, name string, progress func(TraceStep)) (*Result, error) {
	start := time.Now()
	if attrs == nil {
		attrs = e.Attrs()
	}
	res := &Result{Algorithm: name}
	emit := func(step TraceStep) {
		res.Steps = append(res.Steps, step)
		if progress != nil {
			progress(step)
		}
	}
	if len(attrs) == 0 {
		res.Partitioning = &partition.Partitioning{Parts: []*partition.Partition{partition.Root(e.ds)}}
		res.Elapsed = time.Since(start)
		return res, nil
	}

	first := newMatState(e, []*partition.Partition{e.searchRoot()})
	first.ctx = ctx
	a, parts := choose(first, attrs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rest := remove(attrs, a)
	emit(TraceStep{Attribute: a, AvgDistance: parts.avg, Partitions: len(parts.parts), Accepted: true})

	// Each recursion node receives its local group as a matState with the
	// deciding partition first: the group's running average is Algorithm 2's
	// "current" side, and replaceFirst evaluates the "split" side by delta —
	// only child–sibling distances are computed fresh.
	var output []*partition.Partition
	var recurse func(group *matState, attrs []int) error
	recurse = func(group *matState, attrs []int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		current := group.parts[0]
		if len(attrs) == 0 {
			output = append(output, current)
			return nil
		}
		currentAvg := group.avg
		a, children := choose(group.single(0), attrs)
		if err := ctx.Err(); err != nil {
			return err
		}
		rest := remove(attrs, a)
		merged := group.replaceFirst(children)
		step := TraceStep{Attribute: a, AvgDistance: merged.avg, Partitions: len(children.parts)}
		if currentAvg >= merged.avg {
			emit(step)
			output = append(output, current)
			return nil
		}
		step.Accepted = true
		emit(step)
		for x := range children.parts {
			if err := recurse(children.group(x), rest); err != nil {
				return err
			}
		}
		return nil
	}
	for x := range parts.parts {
		if err := recurse(parts.group(x), rest); err != nil {
			return nil, err
		}
	}

	res.Unfairness = e.avgPairwiseAuto(output)
	res.Partitioning = &partition.Partitioning{Parts: e.rows.workerParts(output)}
	res.Elapsed = time.Since(start)
	return res, nil
}

// AllAttributes is the full-partitioning baseline: split on every protected
// attribute unconditionally.
func AllAttributes(e *Evaluator, attrs []int) *Result {
	res, _ := allAttributesCtx(context.Background(), e, attrs, nil)
	return res
}

func allAttributesCtx(ctx context.Context, e *Evaluator, attrs []int, progress func(TraceStep)) (*Result, error) {
	start := time.Now()
	if attrs == nil {
		attrs = e.Attrs()
	}
	state := newMatState(e, []*partition.Partition{e.searchRoot()})
	state.ctx = ctx
	res := &Result{Algorithm: "all-attributes"}
	for _, a := range attrs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Every split is unconditional, so intermediate averages are never
		// consulted: scatter-only probes skip the distance work entirely and
		// the triangle is materialized once at the end.
		state = state.probe(a, e.cfg.Parallelism, false)
		step := TraceStep{Attribute: a, Partitions: len(state.parts), Accepted: true}
		res.Steps = append(res.Steps, step)
		if progress != nil {
			progress(step)
		}
	}
	state.materialize(e.cfg.Parallelism)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Partitioning = &partition.Partitioning{Parts: e.rows.workerParts(state.parts)}
	res.Unfairness = state.avg
	if len(res.Steps) > 0 {
		res.Steps[len(res.Steps)-1].AvgDistance = res.Unfairness
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// ExhaustiveCells solves the optimization problem exactly over the full
// set-partition space: every grouping of the non-empty cells of the
// attribute cross-product, a strict superset of the hierarchical tree space
// Exhaustive searches (and of everything the heuristics can return). The
// space size is the Bell number of the cell count, so this is only usable
// on tiny instances; it exists to quantify how much optimum the tree-shaped
// formulations leave on the table.
func ExhaustiveCells(e *Evaluator, attrs []int, budget int) (*Result, error) {
	return exhaustiveCellsCtx(context.Background(), e, attrs, budget)
}

func exhaustiveCellsCtx(ctx context.Context, e *Evaluator, attrs []int, budget int) (*Result, error) {
	start := time.Now()
	if attrs == nil {
		attrs = e.Attrs()
	}
	res := &Result{Algorithm: "exhaustive-cells", Unfairness: -1}
	err := partition.EnumerateCellGroupings(e.ds, attrs, budget, func(pt *partition.Partitioning) bool {
		if ctx.Err() != nil {
			return false
		}
		u, skipped := e.unfairnessBounded(ctx, pt, res.Unfairness)
		if skipped {
			return true
		}
		if ctx.Err() != nil {
			return false
		}
		if u > res.Unfairness {
			res.Unfairness = u
			res.Partitioning = pt
		}
		return true
	})
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	if res.Unfairness < 0 {
		res.Unfairness = 0
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// Exhaustive solves the optimization problem exactly by enumerating every
// hierarchical split partitioning, subject to a budget on the number of
// partitionings. It returns partition.ErrBudgetExceeded beyond the budget —
// the expected outcome at realistic attribute counts, mirroring the paper's
// brute-force solver that "failed to terminate after running for two days".
func Exhaustive(e *Evaluator, attrs []int, budget int) (*Result, error) {
	return exhaustiveCtx(context.Background(), e, attrs, budget)
}

// exhaustiveCtx checks ctx before and during every candidate evaluation.
// Note that EnumerateTrees materializes its option lists before the first
// yield, so with budgets far above the default the solver observes ctx only
// once candidates start flowing; exhaustiveCellsCtx streams from the start.
func exhaustiveCtx(ctx context.Context, e *Evaluator, attrs []int, budget int) (*Result, error) {
	start := time.Now()
	if attrs == nil {
		attrs = e.Attrs()
	}
	res := &Result{Algorithm: "exhaustive", Unfairness: -1}
	err := partition.EnumerateTrees(e.ds, attrs, budget, func(pt *partition.Partitioning) bool {
		if ctx.Err() != nil {
			return false
		}
		u, skipped := e.unfairnessBounded(ctx, pt, res.Unfairness)
		if skipped {
			return true
		}
		if ctx.Err() != nil {
			return false
		}
		if u > res.Unfairness {
			res.Unfairness = u
			res.Partitioning = pt
		}
		return true
	})
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err != nil {
		return nil, err
	}
	if res.Unfairness < 0 {
		res.Unfairness = 0
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
