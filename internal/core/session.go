package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"fairrank/internal/dataset"
	"fairrank/internal/rng"
	"fairrank/internal/scoring"
	"fairrank/internal/telemetry"
)

// This file is the session layer: the single entry point every consumer of
// the engine goes through. A Spec names a registered algorithm and its
// inputs; Run resolves the algorithm, honors the caller's context
// (cancellation and deadlines propagate into the parallel attribute scan
// and the refinement loops), streams TraceSteps to an optional progress
// callback, and attaches per-run engine statistics to the result. The
// registry replaces the per-algorithm switch blocks that used to be
// duplicated in every consumer above this package.

// DefaultExhaustiveBudget caps how many partitionings the exhaustive
// solvers may enumerate when Spec.Budget is unset.
const DefaultExhaustiveBudget = 100000

// Spec describes one audit run for Run.
type Spec struct {
	// Algorithm is a registered algorithm name (see Algorithms). Empty
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

// RunFunc executes one registered algorithm against an evaluator. It must
// return ctx.Err() when the context is cancelled mid-run.
type RunFunc func(ctx context.Context, e *Evaluator, spec Spec) (*Result, error)

var registry = struct {
	sync.RWMutex
	m map[string]RunFunc
}{m: map[string]RunFunc{}}

// Register adds an algorithm to the registry under a canonical name.
// It panics on an empty name, a nil function, or a duplicate registration:
// all three are programming errors, not runtime conditions.
func Register(name string, fn RunFunc) {
	if name == "" || fn == nil {
		panic("core: Register requires a name and a run function")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.m[name]; dup {
		panic(fmt.Sprintf("core: algorithm %q already registered", name))
	}
	registry.m[name] = fn
}

// Lookup resolves a registered algorithm by name. The error lists the
// registered names, so callers (e.g. HTTP handlers) can surface it
// directly without rebuilding the list.
func Lookup(name string) (RunFunc, error) {
	registry.RLock()
	fn, ok := registry.m[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown algorithm %q (registered: %s)",
			name, strings.Join(Algorithms(), ", "))
	}
	return fn, nil
}

// Algorithms returns the registered algorithm names, sorted.
func Algorithms() []string {
	registry.RLock()
	out := make([]string, 0, len(registry.m))
	for name := range registry.m {
		out = append(out, name)
	}
	registry.RUnlock()
	sort.Strings(out)
	return out
}

// Run executes one audit: it resolves the algorithm from the registry,
// builds (or reuses) the evaluator, and runs under ctx — cancellation and
// deadlines abort the parallel attribute scan and every refinement loop
// promptly, returning ctx.Err(). On success the result carries per-run
// engine statistics.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	name := spec.Algorithm
	if name == "" {
		name = "balanced"
	}
	fn, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	e := spec.Evaluator
	if e == nil {
		if e, err = NewEvaluator(spec.Dataset, spec.Func, spec.Config); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
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
		return nil, err
	}
	res.Stats = RunStats{
		RepsInterned:  int(e.reps.Load() - reps0),
		PairsComputed: int(e.computed.Load() - computed0),
		CacheHits:     int(e.served.Load() - served0),
		Rounds:        len(res.Steps),
	}
	return res, nil
}

func init() {
	Register("balanced", func(ctx context.Context, e *Evaluator, spec Spec) (*Result, error) {
		return balancedWith(ctx, e, spec.Attrs, worstAttribute, "balanced", spec.Progress)
	})
	Register("r-balanced", func(ctx context.Context, e *Evaluator, spec Spec) (*Result, error) {
		return balancedWith(ctx, e, spec.Attrs, randomAttribute(rng.New(spec.Seed+1)), "r-balanced", spec.Progress)
	})
	Register("unbalanced", func(ctx context.Context, e *Evaluator, spec Spec) (*Result, error) {
		return unbalancedWith(ctx, e, spec.Attrs, worstAttribute, "unbalanced", spec.Progress)
	})
	Register("r-unbalanced", func(ctx context.Context, e *Evaluator, spec Spec) (*Result, error) {
		return unbalancedWith(ctx, e, spec.Attrs, randomAttribute(rng.New(spec.Seed+2)), "r-unbalanced", spec.Progress)
	})
	Register("all-attributes", func(ctx context.Context, e *Evaluator, spec Spec) (*Result, error) {
		return allAttributesCtx(ctx, e, spec.Attrs, spec.Progress)
	})
	Register("exhaustive", func(ctx context.Context, e *Evaluator, spec Spec) (*Result, error) {
		return exhaustiveWith(ctx, e, spec.Attrs, spec.budget(), "exhaustive", newTreeSpace)
	})
	Register("exhaustive-cells", func(ctx context.Context, e *Evaluator, spec Spec) (*Result, error) {
		return exhaustiveWith(ctx, e, spec.Attrs, spec.budget(), "exhaustive-cells", newCellSpace)
	})
}
