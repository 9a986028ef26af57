package core

import (
	"context"
	"time"

	"fairrank/internal/partition"
	"fairrank/internal/rng"
	"fairrank/internal/telemetry"
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

// chooser selects the attribute to split a built state's partitions on,
// returning the attribute and the state after splitting every partition on
// it: its reps and average, and its parts once built.
type chooser func(s *matState, attrs []int) (attr int, children *matState)

// inlineRows is the least number of rows a state must hold for
// worstAttribute to probe its candidates concurrently: below it, starting
// and joining the goroutines costs more than the probes they share. On a
// 2-vCPU host, probing five attributes over one part of 1,024 worker rows
// took 35 µs inline and 42 µs on two goroutines, over 2,048 rows 67 and
// 60 µs.
const inlineRows = 2048

// worstAttribute is the paper's greedy choice: probe every remaining
// attribute (concurrently, under Config.Parallelism, over states of at
// least inlineRows rows; leftover parallelism goes to each probe's pair
// fill) and keep the one whose split yields the highest average pairwise
// distance. Ties break toward the earliest attribute in attrs, making runs
// deterministic regardless of scan order. The state returned builds its
// parts only when the search keeps it.
func worstAttribute(s *matState, attrs []int) (int, *matState) {
	p := s.e.cfg.Parallelism
	outer := min(p, len(attrs))
	rows := 0
	for _, part := range s.parts {
		rows += len(part.Indices)
	}
	if rows < inlineRows {
		outer = 1
	}
	inner := 1
	if outer >= 1 && p > outer {
		inner = p / outer
	}
	// One "scan" span per round; the candidates' probe spans are its
	// children.
	sctx, sp := telemetry.StartSpan(s.ctx, "scan")
	defer sp.End()
	sp.SetInt("attrs", int64(len(attrs)))
	sp.SetInt("parts", int64(len(s.parts)))
	probes := make([]*matState, len(attrs))
	parforeach(len(attrs), outer, func(x int) {
		probes[x] = s.probe(sctx, attrs[x], inner)
	})
	if s.canceled() {
		// Structurally valid return; the algorithm layer sees ctx.Err()
		// and discards it.
		return attrs[0], s
	}
	best := 0
	for x, c := range probes {
		if c.avg > probes[best].avg {
			best = x
		}
	}
	return attrs[best], probes[best]
}

// randomAttribute is the baseline choice used by r-balanced and
// r-unbalanced: a uniformly random remaining attribute, probed.
func randomAttribute(r *rng.RNG) chooser {
	return func(s *matState, attrs []int) (int, *matState) {
		a := attrs[r.Intn(len(attrs))]
		return a, s.probe(s.ctx, a, s.e.cfg.Parallelism)
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
	res, _ := balancedWith(context.Background(), e, attrs, worstAttribute, "balanced", nil)
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
	state := e.rootState(ctx)
	if len(attrs) == 0 {
		res.Partitioning = &partition.Partitioning{Parts: e.workerParts(state.parts)}
		res.Elapsed = time.Since(start)
		return res, nil
	}

	// First split is unconditional (lines 1–4 of Algorithm 1).
	a, children := choose(state, attrs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	attrs = remove(attrs, a)
	state = children.built()
	emit(TraceStep{Attribute: a, AvgDistance: children.avg, Partitions: len(children.reps), Accepted: true})

	for len(attrs) > 0 {
		a, children := choose(state, attrs)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		attrs = remove(attrs, a)
		step := TraceStep{Attribute: a, AvgDistance: children.avg, Partitions: len(children.reps)}
		if state.avg >= children.avg {
			emit(step)
			break
		}
		step.Accepted = true
		emit(step)
		state = children.built()
	}
	res.Partitioning = &partition.Partitioning{Parts: e.workerParts(state.parts)}
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
	res, _ := unbalancedWith(context.Background(), e, attrs, worstAttribute, "unbalanced", nil)
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

	a, parts := choose(e.rootState(ctx), attrs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	parts = parts.built()
	rest := remove(attrs, a)
	emit(TraceStep{Attribute: a, AvgDistance: parts.avg, Partitions: len(parts.parts), Accepted: true})

	// Each recursion node receives its local group as a matState with the
	// deciding partition first: the group's average is Algorithm 2's
	// "current" side, and mergedAvg averages the "split" side. Only an
	// accepted split builds its children's parts. The leaves keep their
	// reps, which the final average reads.
	var output []*partition.Partition
	var leafReps []*rep
	var recurse func(group *matState, attrs []int) error
	recurse = func(group *matState, attrs []int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		current, currentRep := group.parts[0], group.reps[0]
		if len(attrs) == 0 {
			output, leafReps = append(output, current), append(leafReps, currentRep)
			return nil
		}
		currentAvg := group.avg
		a, children := choose(group.single(0), attrs)
		if err := ctx.Err(); err != nil {
			return err
		}
		rest := remove(attrs, a)
		merged := group.mergedAvg(children)
		step := TraceStep{Attribute: a, AvgDistance: merged, Partitions: len(children.reps)}
		if currentAvg >= merged {
			emit(step)
			output, leafReps = append(output, current), append(leafReps, currentRep)
			return nil
		}
		step.Accepted = true
		emit(step)
		children = children.built()
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

	res.Unfairness = e.average(ctx, leafReps, e.cfg.Parallelism)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Partitioning = &partition.Partitioning{Parts: e.workerParts(output)}
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
	state := e.rootState(ctx)
	res := &Result{Algorithm: "all-attributes"}
	for _, a := range attrs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Every split is unconditional, so intermediate averages are never
		// consulted: the probes only split, and the final parts are
		// averaged once at the end.
		pctx, psp := startProbe(ctx, a)
		state = state.split(pctx, a).built()
		psp.End()
		step := TraceStep{Attribute: a, Partitions: len(state.parts), Accepted: true}
		res.Steps = append(res.Steps, step)
		if progress != nil {
			progress(step)
		}
	}
	res.Unfairness = e.average(ctx, state.reps, e.cfg.Parallelism)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Partitioning = &partition.Partitioning{Parts: e.workerParts(state.parts)}
	if len(res.Steps) > 0 {
		res.Steps[len(res.Steps)-1].AvgDistance = res.Unfairness
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
