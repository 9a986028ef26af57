// Package campaign runs audit campaigns: many scoring functions audited
// against one population, with permutation-test p-values and
// Benjamini-Hochberg false-discovery-rate control across the whole
// campaign. Auditing twenty task functions at p < 0.05 each flags one
// "unfair" function by luck alone; a campaign reports which functions
// remain significant after correction.
package campaign

import (
	"context"
	"errors"
	"sort"
	"sync"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/scoring"
	"fairrank/internal/stats"
)

// Options configures a campaign.
type Options struct {
	// Config tunes the unfairness evaluator.
	Config core.Config
	// Algorithm selects the search algorithm by registered name
	// ("balanced" by default; see core.Algorithms for the full set).
	Algorithm string
	// Rounds is the permutation-test round count per function
	// (default 200).
	Rounds int
	// Alpha is the false-discovery rate for Benjamini-Hochberg
	// (default 0.05).
	Alpha float64
	// Parallelism bounds concurrent function audits (default 1).
	Parallelism int
	// Seed drives the permutation tests.
	Seed uint64
}

// FunctionAudit is one function's campaign outcome.
type FunctionAudit struct {
	// Function is the scoring function's name.
	Function string
	// Unfairness is the most unfair partitioning's average pairwise
	// distance.
	Unfairness float64
	// Partitions is the size of that partitioning.
	Partitions int
	// AttributesUsed names the protected attributes it splits on.
	AttributesUsed []string
	// PValue is the permutation-test p-value of the observed unfairness.
	PValue float64
	// Significant reports whether the function remains flagged after
	// Benjamini-Hochberg correction across the campaign.
	Significant bool
}

// Run audits every function against the population and returns one
// FunctionAudit per function, in input order, with campaign-wide FDR
// control applied to the Significant flags.
func Run(ds *dataset.Dataset, funcs []scoring.Func, opts Options) ([]FunctionAudit, error) {
	return RunContext(context.Background(), ds, funcs, opts)
}

// RunContext is Run under a context: cancelling ctx aborts every in-flight
// function audit and returns ctx.Err().
func RunContext(ctx context.Context, ds *dataset.Dataset, funcs []scoring.Func, opts Options) ([]FunctionAudit, error) {
	if ds == nil || ds.N() == 0 {
		return nil, errors.New("campaign: empty population")
	}
	if len(funcs) == 0 {
		return nil, errors.New("campaign: no scoring functions")
	}
	if opts.Rounds <= 0 {
		opts.Rounds = 200
	}
	if opts.Alpha <= 0 || opts.Alpha >= 1 {
		opts.Alpha = 0.05
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = 1
	}
	if opts.Algorithm == "" {
		opts.Algorithm = "balanced"
	}
	// Fail fast on an unknown algorithm before fanning out any work.
	if _, err := core.Lookup(opts.Algorithm); err != nil {
		return nil, err
	}

	audits := make([]FunctionAudit, len(funcs))
	errs := make([]error, len(funcs))
	sem := make(chan struct{}, opts.Parallelism)
	var wg sync.WaitGroup
	for i, f := range funcs {
		wg.Add(1)
		go func(i int, f scoring.Func) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			audits[i], errs[i] = auditOne(ctx, ds, f, opts, opts.Seed+uint64(i)*7919)
		}(i, f)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	pvals := make([]float64, len(audits))
	for i, a := range audits {
		pvals[i] = a.PValue
	}
	rejected, err := stats.BenjaminiHochberg(pvals, opts.Alpha)
	if err != nil {
		return nil, err
	}
	for i := range audits {
		audits[i].Significant = rejected[i]
	}
	return audits, nil
}

func auditOne(ctx context.Context, ds *dataset.Dataset, f scoring.Func, opts Options, seed uint64) (FunctionAudit, error) {
	e, err := core.NewEvaluator(ds, f, opts.Config)
	if err != nil {
		return FunctionAudit{}, err
	}
	res, err := core.Run(ctx, core.Spec{
		Algorithm: opts.Algorithm,
		Evaluator: e,
		Seed:      seed,
	})
	if err != nil {
		return FunctionAudit{}, err
	}
	p, err := core.PValue(ctx, e, core.PartSizes(res.Parts), res.Unfairness, opts.Rounds, seed)
	if err != nil {
		return FunctionAudit{}, err
	}
	var attrs []string
	for _, a := range res.Partitioning.AttributesUsed() {
		attrs = append(attrs, ds.Schema().Protected[a].Name)
	}
	sort.Strings(attrs)
	return FunctionAudit{
		Function:       f.Name(),
		Unfairness:     res.Unfairness,
		Partitions:     res.Partitioning.Size(),
		AttributesUsed: attrs,
		PValue:         p,
	}, nil
}
