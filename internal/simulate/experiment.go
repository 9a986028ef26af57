package simulate

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/scoring"
)

// AlgorithmID names one of the paper's five algorithms.
type AlgorithmID string

// The five algorithms compared in Tables 1–3, in the paper's row order.
const (
	AlgoUnbalanced    AlgorithmID = "unbalanced"
	AlgoRUnbalanced   AlgorithmID = "r-unbalanced"
	AlgoBalanced      AlgorithmID = "balanced"
	AlgoRBalanced     AlgorithmID = "r-balanced"
	AlgoAllAttributes AlgorithmID = "all-attributes"
)

// AllAlgorithms lists the table rows in order.
var AllAlgorithms = []AlgorithmID{
	AlgoUnbalanced, AlgoRUnbalanced, AlgoBalanced, AlgoRBalanced, AlgoAllAttributes,
}

// Spec describes one experiment: a worker population, a set of scoring
// functions (table columns) and a set of algorithms (table rows).
type Spec struct {
	// Name labels the experiment, e.g. "table1".
	Name string
	// Workers is the population size.
	Workers int
	// Dataset, when non-nil, is audited directly instead of generating
	// Workers synthetic workers — e.g. a memory-mapped snapshot the caller
	// opened with dataset.OpenSnapshot. Workers and the generation half of
	// Seed are then ignored; Seed still drives the random baselines.
	Dataset *dataset.Dataset
	// Seed drives worker generation and the random-attribute baselines.
	Seed uint64
	// Funcs are the scoring functions to audit (table columns).
	Funcs []scoring.Func
	// Algorithms are the table rows; nil means AllAlgorithms.
	Algorithms []AlgorithmID
	// Config tunes the unfairness evaluator.
	Config core.Config
}

// population resolves the experiment's dataset: the injected one if set,
// a generated paper-schema population otherwise.
func (s Spec) population() (*dataset.Dataset, error) {
	if s.Dataset != nil {
		return s.Dataset, nil
	}
	return PaperWorkers(s.Workers, s.Seed)
}

// Cell is one (algorithm, function) measurement.
type Cell struct {
	// Function is the scoring function's name.
	Function string
	// AvgDistance is the unfairness of the partitioning found.
	AvgDistance float64
	// Elapsed is the algorithm's wall-clock runtime.
	Elapsed time.Duration
	// Partitions is the size of the partitioning found.
	Partitions int
	// AttributesUsed names the protected attributes the partitioning
	// splits on.
	AttributesUsed []string
}

// Row is one algorithm's measurements across all functions.
type Row struct {
	Algorithm AlgorithmID
	Cells     []Cell
}

// Result is a completed experiment.
type Result struct {
	Spec    Spec
	Dataset *dataset.Dataset
	Rows    []Row
}

// RunParallel executes the experiment: it generates the worker population
// once and runs every algorithm on every scoring function, the (function,
// algorithm) cells executed concurrently by at most `workers` goroutines;
// workers <= 1 runs them inline. Runs are deterministic in the Spec, and
// results are identical at every worker count — each cell gets its own
// evaluator and a seed derived only from the spec — but wall-clock time
// drops roughly by the worker count; only the per-cell Elapsed values may
// differ (they measure the same work under scheduler contention). On
// failure it returns the first failing cell's error, in function-major
// cell order, once every goroutine has exited.
func RunParallel(spec Spec, workers int) (*Result, error) {
	if len(spec.Funcs) == 0 {
		return nil, fmt.Errorf("simulate: experiment %q has no scoring functions", spec.Name)
	}
	algos := spec.Algorithms
	if algos == nil {
		algos = AllAlgorithms
	}
	ds, err := spec.population()
	if err != nil {
		return nil, err
	}

	// Cell k is function k/len(algos) under algorithm k%len(algos). Cells
	// are claimed in that order, so every cell before a failed one was
	// claimed, and a claimed cell always runs to the end: errs holds the
	// first failure in cell order. Once a failure is seen, no new cell is
	// claimed.
	cells := make([]Cell, len(spec.Funcs)*len(algos))
	errs := make([]error, len(cells))
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		for !failed.Load() {
			k := int(next.Add(1) - 1)
			if k >= len(cells) {
				return
			}
			fi, ai := k/len(algos), k%len(algos)
			if cells[k], errs[k] = runCell(ds, spec, fi, algos[ai]); errs[k] != nil {
				failed.Store(true)
			}
		}
	}
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res := &Result{Spec: spec, Dataset: ds}
	for ai, a := range algos {
		row := Row{Algorithm: a, Cells: make([]Cell, len(spec.Funcs))}
		for fi := range spec.Funcs {
			row.Cells[fi] = cells[fi*len(algos)+ai]
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runCell measures one scoring function under one algorithm on its own
// evaluator.
func runCell(ds *dataset.Dataset, spec Spec, fi int, a AlgorithmID) (Cell, error) {
	f := spec.Funcs[fi]
	e, err := core.NewEvaluator(ds, f, spec.Config)
	if err != nil {
		return Cell{}, fmt.Errorf("simulate: evaluator for %s: %w", f.Name(), err)
	}
	r, err := runAlgorithm(e, a, spec.Seed+uint64(fi)*1000)
	if err != nil {
		return Cell{}, err
	}
	attrs := make([]string, 0)
	for _, ai := range r.Partitioning.AttributesUsed() {
		attrs = append(attrs, ds.Schema().Protected[ai].Name)
	}
	return Cell{
		Function:       f.Name(),
		AvgDistance:    r.Unfairness,
		Elapsed:        r.Elapsed,
		Partitions:     r.Partitioning.Size(),
		AttributesUsed: attrs,
	}, nil
}

// runAlgorithm dispatches through the engine registry. The registry's
// baseline seed derivations (r-balanced from seed+1, r-unbalanced from
// seed+2) match the derivations this package always used, so table outputs
// are unchanged.
func runAlgorithm(e *core.Evaluator, a AlgorithmID, seed uint64) (*core.Result, error) {
	return core.Run(context.Background(), core.Spec{
		Algorithm: string(a),
		Evaluator: e,
		Seed:      seed,
	})
}

// Table1Spec reproduces Table 1: 500 workers, random functions f1–f5,
// all five algorithms.
func Table1Spec(seed uint64) (Spec, error) {
	funcs, err := RandomFunctions()
	if err != nil {
		return Spec{}, err
	}
	return Spec{Name: "table1", Workers: SmallPopulation, Seed: seed, Funcs: funcs}, nil
}

// Table2Spec reproduces Table 2: 7300 workers, random functions f1–f5.
func Table2Spec(seed uint64) (Spec, error) {
	funcs, err := RandomFunctions()
	if err != nil {
		return Spec{}, err
	}
	return Spec{Name: "table2", Workers: LargePopulation, Seed: seed, Funcs: funcs}, nil
}

// Table3Spec reproduces Table 3: 7300 workers, biased functions f6–f9.
func Table3Spec(seed uint64) (Spec, error) {
	funcs, err := BiasedFunctions(seed)
	if err != nil {
		return Spec{}, err
	}
	return Spec{Name: "table3", Workers: LargePopulation, Seed: seed, Funcs: funcs}, nil
}
