package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"fairrank/internal/dataset"
	"fairrank/internal/partition"
	"fairrank/internal/rng"
	"fairrank/internal/scoring"
	"fairrank/internal/telemetry"
)

// This file is the session layer: the single entry point every consumer of
// the engine goes through. A Spec names an algorithm and its inputs;
// Search and Run resolve the algorithm in one fixed table, honor the
// caller's context (cancellation and deadlines propagate into the
// parallel attribute scan and the refinement loops), stream TraceSteps to
// an optional progress callback, and attach per-run engine statistics to
// the result. The table replaces the per-algorithm switch blocks that
// used to be duplicated in every consumer above this package.

// DefaultExhaustiveBudget caps how many partitionings the exhaustive
// solvers may enumerate when Spec.Budget is unset.
const DefaultExhaustiveBudget = 100000

// Spec describes one audit run for Run.
type Spec struct {
	// Algorithm is an algorithm name (see Algorithms). Empty
	// selects "balanced", the paper's primary algorithm.
	Algorithm string
	// Evaluator, when non-nil, runs the audit against an existing
	// evaluator, reusing its scores and row space across runs. Otherwise
	// one is built from Dataset, Func and Config.
	Evaluator *Evaluator
	// Dataset and Func define the population and scoring function under
	// audit when Evaluator is nil.
	Dataset *dataset.Dataset
	Func    scoring.Func
	// Config tunes the evaluator built from Dataset/Func.
	Config Config
	// Attrs restricts the audit to these protected attribute indices;
	// nil means all protected attributes.
	Attrs []int
	// Seed drives the random-attribute baselines (r-balanced derives its
	// stream from Seed+1, r-unbalanced from Seed+2, so the two baselines
	// never share a random sequence).
	Seed uint64
	// Budget caps exhaustive enumeration; 0 means
	// DefaultExhaustiveBudget. Ignored by the heuristics.
	Budget int
	// Progress, when non-nil, receives every TraceStep as it is decided,
	// before the run completes — a hook for live dashboards and tracing.
	// It is called from the algorithm's goroutine; it must be fast and
	// must not call back into the session.
	Progress func(TraceStep)
}

func (s Spec) budget() int {
	if s.Budget > 0 {
		return s.Budget
	}
	return DefaultExhaustiveBudget
}

// RunStats reports the engine work one Run performed, as deltas over the
// evaluator's counters — so they are per-run even when an evaluator is
// reused across runs.
type RunStats struct {
	// RepsInterned is how many reps this run built: one for each child
	// of every split it counted (a split that keeps a part's content
	// keeps its rep; a split the search keeps reuses the reps its count
	// built), plus the row space's root on an evaluator's first search.
	// An exhaustive-cells block is not counted.
	RepsInterned int
	// PairsComputed is how many pairwise distances the pair path (Exact
	// mode; the KS, JS, χ² and Hellinger metrics) computed in this run.
	// The exact average of binned EMD, L1 and TV computes no pair
	// distance, so there it is 0.
	PairsComputed int
	// CacheHits is how many pairwise distances an exhaustive solver's
	// per-run memo served on the pair path instead of recomputing; 0 for
	// every other algorithm and wherever PairsComputed is.
	CacheHits int
	// PairsCopied and PairsPruned are always 0. They counted the pairs a
	// search copied from an earlier state and the pairs a pruning cascade
	// skipped; no average copies or skips pairs any more. They stay so
	// that code reading them still compiles.
	PairsCopied int
	PairsPruned int
	// Rounds is the number of splitting decisions traced (len(Steps)).
	Rounds int
}

// RunFunc executes one algorithm of the table against an evaluator and
// returns its result with the parts over the evaluator's row space, which
// Search sizes and Run maps back to workers. It must return ctx.Err() when
// the context is cancelled mid-run.
type RunFunc func(ctx context.Context, e *Evaluator, spec Spec) (*Result, error)

// algorithms maps each algorithm name to its run function: the paper's
// searches, their random-attribute baselines, the full split and the
// exact solvers. It is fixed at initialisation and only read after, so
// it needs no lock.
var algorithms = map[string]RunFunc{
	"balanced": func(ctx context.Context, e *Evaluator, spec Spec) (*Result, error) {
		return balancedWith(ctx, e, spec.Attrs, worstAttribute, "balanced", spec.Progress)
	},
	"r-balanced": func(ctx context.Context, e *Evaluator, spec Spec) (*Result, error) {
		return balancedWith(ctx, e, spec.Attrs, randomAttribute(rng.New(spec.Seed+1)), "r-balanced", spec.Progress)
	},
	"unbalanced": func(ctx context.Context, e *Evaluator, spec Spec) (*Result, error) {
		return unbalancedWith(ctx, e, spec.Attrs, worstAttribute, "unbalanced", spec.Progress)
	},
	"r-unbalanced": func(ctx context.Context, e *Evaluator, spec Spec) (*Result, error) {
		return unbalancedWith(ctx, e, spec.Attrs, randomAttribute(rng.New(spec.Seed+2)), "r-unbalanced", spec.Progress)
	},
	"all-attributes": func(ctx context.Context, e *Evaluator, spec Spec) (*Result, error) {
		return allAttributesCtx(ctx, e, spec.Attrs, spec.Progress)
	},
	"exhaustive": func(ctx context.Context, e *Evaluator, spec Spec) (*Result, error) {
		return exhaustiveWith(ctx, e, spec.Attrs, spec.budget(), "exhaustive", newTreeSpace)
	},
	"exhaustive-cells": func(ctx context.Context, e *Evaluator, spec Spec) (*Result, error) {
		return exhaustiveWith(ctx, e, spec.Attrs, spec.budget(), "exhaustive-cells", newCellSpace)
	},
}

// algorithmNames holds algorithms' names, sorted.
var algorithmNames = func() []string {
	out := make([]string, 0, len(algorithms))
	for name := range algorithms {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}()

// Lookup resolves an algorithm by name. The error lists the algorithm
// names, so callers (e.g. HTTP handlers) can surface it directly without
// rebuilding the list.
func Lookup(name string) (RunFunc, error) {
	fn, ok := algorithms[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown algorithm %q (registered: %s)",
			name, strings.Join(algorithmNames, ", "))
	}
	return fn, nil
}

// Algorithms returns the algorithm names, sorted, in a slice the caller
// may keep and modify.
func Algorithms() []string { return slices.Clone(algorithmNames) }

// Search executes one audit: it resolves the algorithm from the table,
// builds (or reuses) the evaluator, and runs under ctx — cancellation and
// deadlines abort the parallel attribute scan and every refinement loop
// promptly, returning ctx.Err(). The result stops at the row space the
// algorithms split (rows.go): Parts gives each part's constraints (or
// name) and its worker count, summed from the row weights, and there is
// no Partitioning, so no worker list is built. On success the result
// carries per-run engine statistics.
func Search(ctx context.Context, spec Spec) (*Result, error) {
	res, e, err := search(ctx, spec)
	if err != nil {
		return nil, err
	}
	e.sized(res)
	res.rows = nil
	return res, nil
}

// Run is Search with the parts mapped back to workers: the result's
// Partitioning lists each part's workers in ascending order, at an O(N)
// cost Search does not pay.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	res, e, err := search(ctx, spec)
	if err != nil {
		return nil, err
	}
	return e.done(res), nil
}

// search runs spec's algorithm for Search and Run, leaving the result's
// parts over the evaluator's row space.
func search(ctx context.Context, spec Spec) (*Result, *Evaluator, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	name := spec.Algorithm
	if name == "" {
		name = "balanced"
	}
	fn, err := Lookup(name)
	if err != nil {
		return nil, nil, err
	}
	e := spec.Evaluator
	if e == nil {
		if e, err = NewEvaluator(spec.Dataset, spec.Func, spec.Config); err != nil {
			return nil, nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	reps0, computed0, served0 := e.reps.Load(), e.computed.Load(), e.served.Load()
	// The root "run" span parents every scan/probe/split/emd span the
	// engine opens below; it no-ops when no tracer is attached.
	rctx, rsp := telemetry.StartSpan(ctx, "run")
	rsp.SetStr("algorithm", name)
	res, err := fn(rctx, e, spec)
	rsp.End()
	e.tel.runs.Inc()
	if err != nil {
		return nil, nil, err
	}
	res.Stats = RunStats{
		RepsInterned:  int(e.reps.Load() - reps0),
		PairsComputed: int(e.computed.Load() - computed0),
		CacheHits:     int(e.served.Load() - served0),
		Rounds:        len(res.Steps),
	}
	return res, e, nil
}

// sized fills res.Parts from the parts res holds over the row space.
func (e *Evaluator) sized(res *Result) {
	res.Parts = make([]Part, len(res.rows))
	for k, p := range res.rows {
		res.Parts[k] = Part{Constraints: p.Constraints, Name: p.Name, Size: e.rows.size(p)}
	}
}

// done completes an algorithm's result as Run returns it: its Parts, and
// its Partitioning of the same parts over workers.
func (e *Evaluator) done(res *Result) *Result {
	e.sized(res)
	res.Partitioning = &partition.Partitioning{Parts: e.workerParts(res.rows)}
	res.rows = nil
	return res
}
