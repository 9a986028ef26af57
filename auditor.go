package fairrank

import (
	"context"
	"errors"
	"fmt"

	"fairrank/internal/core"
	"fairrank/internal/explain"
	"fairrank/internal/partition"
	"fairrank/internal/repair"
	"fairrank/internal/scoring"
)

// AttributeImportance quantifies one protected attribute's contribution to
// a scoring function's unfairness: Solo is the unfairness of splitting on
// the attribute alone; Marginal is the leave-one-out drop in full-split
// unfairness.
type AttributeImportance = explain.AttributeImportance

// Algorithm names one of the paper's partitioning-search algorithms.
type Algorithm string

// The algorithms evaluated in the paper, plus the exact solver.
const (
	// AlgoBalanced is Algorithm 1: split every partition on the globally
	// worst attribute each round, stop when unfairness stops improving.
	AlgoBalanced Algorithm = "balanced"
	// AlgoUnbalanced is Algorithm 2: decide per partition whether to
	// split further, yielding an unbalanced partitioning tree.
	AlgoUnbalanced Algorithm = "unbalanced"
	// AlgoRBalanced is balanced with random attribute choice (baseline).
	AlgoRBalanced Algorithm = "r-balanced"
	// AlgoRUnbalanced is unbalanced with random attribute choice.
	AlgoRUnbalanced Algorithm = "r-unbalanced"
	// AlgoAllAttributes splits on every protected attribute (baseline).
	AlgoAllAttributes Algorithm = "all-attributes"
	// AlgoExhaustive enumerates the whole partitioning space; it fails
	// with a budget error beyond tiny instances.
	AlgoExhaustive Algorithm = "exhaustive"
)

// Algorithms lists the five heuristic/baseline algorithms in the paper's
// table order (exhaustive excluded, as in the paper's tables).
var Algorithms = []Algorithm{
	AlgoUnbalanced, AlgoRUnbalanced, AlgoBalanced, AlgoRBalanced, AlgoAllAttributes,
}

// RegisteredAlgorithms returns every algorithm name the engine registry
// knows, sorted — the authoritative set Audit accepts (a superset of
// Algorithms that includes the exact solvers).
func RegisteredAlgorithms() []string { return core.Algorithms() }

// Auditor runs fairness audits with a fixed measurement configuration.
// The zero value is not ready; use NewAuditor.
type Auditor struct {
	cfg              Config
	seed             uint64
	exhaustiveBudget int
}

// Option configures an Auditor.
type Option func(*Auditor)

// WithConfig sets the unfairness measurement configuration (bins, metric,
// ground distance, parallelism).
func WithConfig(cfg Config) Option { return func(a *Auditor) { a.cfg = cfg } }

// WithSeed seeds the random-attribute baselines; audits are deterministic
// for a fixed seed. The default seed is 1.
func WithSeed(seed uint64) Option { return func(a *Auditor) { a.seed = seed } }

// WithExhaustiveBudget caps how many partitionings AlgoExhaustive may
// enumerate before giving up (default 100000).
func WithExhaustiveBudget(budget int) Option {
	return func(a *Auditor) { a.exhaustiveBudget = budget }
}

// NewAuditor returns an Auditor with 10 histogram bins, the EMD metric and
// score-unit ground distance — the paper's configuration.
func NewAuditor(opts ...Option) *Auditor {
	a := &Auditor{seed: 1, exhaustiveBudget: 100000}
	for _, o := range opts {
		o(a)
	}
	return a
}

// Audit searches for the most unfair partitioning of ds under f using the
// given algorithm, over all protected attributes.
func (a *Auditor) Audit(ds *Dataset, f ScoringFunc, algo Algorithm) (*Result, error) {
	return a.AuditAttrsContext(context.Background(), ds, f, algo, nil)
}

// AuditContext is Audit under a context: cancellation or a deadline aborts
// the search promptly, returning ctx.Err().
func (a *Auditor) AuditContext(ctx context.Context, ds *Dataset, f ScoringFunc, algo Algorithm) (*Result, error) {
	return a.AuditAttrsContext(ctx, ds, f, algo, nil)
}

// AuditAttrs is Audit restricted to a subset of protected attributes,
// given by name. attrs nil means all protected attributes.
func (a *Auditor) AuditAttrs(ds *Dataset, f ScoringFunc, algo Algorithm, attrs []string) (*Result, error) {
	return a.AuditAttrsContext(context.Background(), ds, f, algo, attrs)
}

// AuditAttrsContext is AuditAttrs under a context. All Audit variants
// funnel into core.Run here; the algorithm name is resolved against the
// engine registry, so any registered algorithm — including ones not listed
// in Algorithms — is accepted.
func (a *Auditor) AuditAttrsContext(ctx context.Context, ds *Dataset, f ScoringFunc, algo Algorithm, attrs []string) (*Result, error) {
	e, err := core.NewEvaluator(ds, f, a.cfg)
	if err != nil {
		return nil, err
	}
	var idx []int
	if attrs != nil {
		idx = make([]int, 0, len(attrs))
		for _, name := range attrs {
			i := ds.Schema().ProtectedIndex(name)
			if i < 0 {
				return nil, fmt.Errorf("fairrank: %q is not a protected attribute", name)
			}
			idx = append(idx, i)
		}
	}
	return core.Run(ctx, core.Spec{
		Algorithm: string(algo),
		Evaluator: e,
		Attrs:     idx,
		Seed:      a.seed,
		Budget:    a.exhaustiveBudget,
	})
}

// AuditAll runs every algorithm in Algorithms and returns the results in
// the same order.
func (a *Auditor) AuditAll(ds *Dataset, f ScoringFunc) ([]*Result, error) {
	out := make([]*Result, 0, len(Algorithms))
	for _, algo := range Algorithms {
		r, err := a.Audit(ds, f, algo)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Beam runs the beam-search extension: like balanced, but keeping the
// `width` best frontier partitionings each round and returning the best
// partitioning ever seen. It escapes the greedy traps the paper observes in
// its stopping-condition discussion, at width× the cost.
func (a *Auditor) Beam(ds *Dataset, f ScoringFunc, width int) (*Result, error) {
	e, err := core.NewEvaluator(ds, f, a.cfg)
	if err != nil {
		return nil, err
	}
	return core.Beam(e, nil, width)
}

// Significance permutation-tests whether a partitioning's unfairness
// exceeds what exchangeable scores would produce, returning the one-sided
// p-value and the observed unfairness. Small p-values mean the disparity is
// not sampling noise.
func (a *Auditor) Significance(ds *Dataset, f ScoringFunc, pt *Partitioning, rounds int) (pValue, observed float64, err error) {
	e, err := core.NewEvaluator(ds, f, a.cfg)
	if err != nil {
		return 0, 0, err
	}
	return core.Significance(context.Background(), e, pt, rounds, a.seed)
}

// Explain computes per-attribute importances for the scoring function's
// unfairness, sorted most-important first.
func (a *Auditor) Explain(ds *Dataset, f ScoringFunc) ([]AttributeImportance, error) {
	e, err := core.NewEvaluator(ds, f, a.cfg)
	if err != nil {
		return nil, err
	}
	return explain.Attributes(e), nil
}

// Unfairness measures unfairness(P, f) for an explicit partitioning —
// Definition 2 of the paper.
func (a *Auditor) Unfairness(ds *Dataset, f ScoringFunc, pt *Partitioning) (float64, error) {
	e, err := core.NewEvaluator(ds, f, a.cfg)
	if err != nil {
		return 0, err
	}
	return e.Unfairness(pt), nil
}

// GroupBy builds the partitioning induced by splitting the whole
// population on the named protected attributes in order — the pre-defined
// groupings prior work audits (e.g. just Gender).
func GroupBy(ds *Dataset, attrs ...string) (*Partitioning, error) {
	if len(attrs) == 0 {
		return nil, errors.New("fairrank: GroupBy needs at least one attribute")
	}
	parts := []*Partition{partition.Root(ds)}
	for _, name := range attrs {
		i := ds.Schema().ProtectedIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("fairrank: %q is not a protected attribute", name)
		}
		parts = partition.SplitAll(ds, parts, i)
	}
	return &Partitioning{Parts: parts}, nil
}

// RepairedScores applies quantile-matching bias repair (the paper's future
// work): every partition's score distribution is pulled toward the global
// distribution. amount=1 fully equalizes; within-partition ranking is
// preserved. Returns the repaired score column, indexed like the dataset.
func (a *Auditor) RepairedScores(ds *Dataset, f ScoringFunc, pt *Partitioning, amount float64) ([]float64, error) {
	e, err := core.NewEvaluator(ds, f, a.cfg)
	if err != nil {
		return nil, err
	}
	return repair.Scores(e.Scores(), pt, amount)
}

// ScoreUnfairness measures unfairness(P, f) of an arbitrary score column
// over a partitioning of ds, e.g. to compare before/after repair:
// scores[i] is worker i's score. It honours the auditor's configuration
// (bins, metric, ground distance, Exact), as Unfairness does.
func (a *Auditor) ScoreUnfairness(ds *Dataset, scores []float64, pt *Partitioning) (float64, error) {
	if ds == nil || len(scores) != ds.N() {
		return 0, errors.New("fairrank: ScoreUnfairness needs one score per worker of the dataset")
	}
	if err := pt.Validate(ds); err != nil {
		return 0, err
	}
	column := scoring.ScoreFunc{FuncName: "scores", Fn: func(_ *Dataset, i int) float64 { return scores[i] }}
	return a.Unfairness(ds, column, pt)
}
