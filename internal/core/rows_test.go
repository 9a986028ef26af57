package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/emd"
	"fairrank/internal/rng"
	"fairrank/internal/testkit"
)

// Tests for the collapsed row space (rows.go): binned searches scatter
// weighted (cell, bin) rows, and must be bit-identical to scattering the
// workers themselves — the row-scatter oracle below — in every observable:
// unfairness, traces, the partitions' keys and worker rows in order, and
// the run's pair accounting.

// rowScatter switches the evaluator to search worker rows: the row-scatter
// oracle. Call it before the first search.
func rowScatter(e *Evaluator) *Evaluator {
	e.rows = workerRows(e.ds)
	return e
}

// forceCollapse switches a binned evaluator to collapsed rows even where
// the engine would search workers (every worker its own cell), so the
// differential exercises the collapse on that population too.
func forceCollapse(e *Evaluator) *Evaluator {
	e.rows = collapsedRows(e.ds.Cells(), e.binIdx, e.cfg.Bins)
	return e
}

// distinctCellDataset gives every worker its own protected cell: three
// card-8 attributes carry the base-8 digits of the worker's index.
func distinctCellDataset(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	if n > 512 {
		t.Fatalf("distinctCellDataset: %d workers exceed the 512 cells", n)
	}
	vals := []string{"0", "1", "2", "3", "4", "5", "6", "7"}
	schema := &dataset.Schema{
		Protected: []dataset.Attribute{dataset.Cat("D0", vals...), dataset.Cat("D1", vals...), dataset.Cat("D2", vals...)},
		Observed:  []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
	b := dataset.NewBuilder(schema)
	r := rng.New(uint64(n))
	for i := 0; i < n; i++ {
		// Scores lean on the digits so the searches keep splitting.
		score := 0.5*float64(i%8)/7 + 0.3*float64(i/64)/7 + 0.2*r.Float64()
		b.Add(fmt.Sprintf("w%d", i), map[string]any{"D0": vals[i%8], "D1": vals[i/8%8], "D2": vals[i/64]},
			map[string]any{"Score": score})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// constAttrDataset adds two single-value attributes around a random
// population: a one-value categorical and a two-value one whose second
// value never occurs.
func constAttrDataset(t *testing.T, n int, seed uint64) *dataset.Dataset {
	t.Helper()
	schema := &dataset.Schema{
		Protected: []dataset.Attribute{
			dataset.Cat("Only", "x"),
			dataset.Cat("Gender", "Male", "Female"),
			dataset.Cat("Unused", "a", "b"),
			dataset.Num("Age", 0, 100, 4),
		},
		Observed: []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
	b := dataset.NewBuilder(schema)
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		age := r.FloatRange(0, 100)
		g := rng.Pick(r, []string{"Male", "Female"})
		score := 0.6*age/100 + 0.4*r.Float64()
		b.Add(fmt.Sprintf("w%d", i), map[string]any{"Only": "x", "Gender": g, "Unused": "a", "Age": age},
			map[string]any{"Score": score})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// compareRowForms fails unless two results agree bit for bit: unfairness,
// trace, and every part's key and worker rows, in order.
func compareRowForms(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if math.Float64bits(got.Unfairness) != math.Float64bits(want.Unfairness) {
		t.Errorf("%s: unfairness %v, row scatter %v", label, got.Unfairness, want.Unfairness)
	}
	if len(got.Steps) != len(want.Steps) {
		t.Fatalf("%s: %d steps, row scatter %d", label, len(got.Steps), len(want.Steps))
	}
	for i := range got.Steps {
		g, w := got.Steps[i], want.Steps[i]
		if g.Attribute != w.Attribute || g.Partitions != w.Partitions || g.Accepted != w.Accepted ||
			math.Float64bits(g.AvgDistance) != math.Float64bits(w.AvgDistance) {
			t.Errorf("%s: step %d = %+v, row scatter %+v", label, i, g, w)
		}
	}
	gp, wp := got.Partitioning.Parts, want.Partitioning.Parts
	if len(gp) != len(wp) {
		t.Fatalf("%s: %d parts, row scatter %d", label, len(gp), len(wp))
	}
	for k := range gp {
		if gp[k].Key() != wp[k].Key() {
			t.Fatalf("%s: part %d is %s, row scatter %s", label, k, gp[k].Key(), wp[k].Key())
		}
		if fmt.Sprint(gp[k].Indices) != fmt.Sprint(wp[k].Indices) {
			t.Fatalf("%s: part %d (%s) rows %v, row scatter %v", label, k, gp[k].Key(), gp[k].Indices, wp[k].Indices)
		}
	}
}

// checkCarved fails unless a search result's parts are capacity-capped at
// their own ends, so an append to one part cannot write into another.
func checkCarved(t *testing.T, label string, res *Result) {
	t.Helper()
	for k, p := range res.Partitioning.Parts {
		if cap(p.Indices) != len(p.Indices) {
			t.Fatalf("%s: part %d has capacity %d past its %d rows", label, k, cap(p.Indices), len(p.Indices))
		}
	}
}

// TestCollapsedRowsMatchRowScatter is the collapsed scatter's differential:
// every registered algorithm and Beam, over random populations, a
// population where every worker is its own cell (which the engine searches
// as worker rows, so the collapse is also forced there), single-value
// attributes, a MinPartitionSize guard, several bin counts and a non-EMD
// metric. Runs are serial, so the full RunStats — and with them the
// four-bucket slot total — must match too.
func TestCollapsedRowsMatchRowScatter(t *testing.T) {
	type population struct {
		name string
		ds   *dataset.Dataset
	}
	var pops []population
	for seed := uint64(1); seed <= 4; seed++ {
		g := testkit.NewGen(seed)
		ds, err := g.WorkerDataset(g.R.IntRange(60, 400))
		if err != nil {
			t.Fatal(err)
		}
		pops = append(pops, population{fmt.Sprintf("random-%d", seed), ds})
	}
	pops = append(pops,
		population{"distinct-cells", distinctCellDataset(t, 300)},
		population{"single-value-attrs", constAttrDataset(t, 250, 5)},
	)
	configs := []struct {
		name string
		cfg  Config
	}{
		{"bins10", Config{Bins: 10, Parallelism: 1}},
		{"bins3-minsize", Config{Bins: 3, Parallelism: 1, MinPartitionSize: 12}},
		{"bins64", Config{Bins: 64, Parallelism: 1}},
		{"l1", Config{Bins: 10, Parallelism: 1, Metric: emd.MetricL1}},
	}
	arms := []struct {
		name string
		use  func(*Evaluator) *Evaluator
	}{
		{"default", func(e *Evaluator) *Evaluator { return e }},
		{"collapsed", forceCollapse},
	}
	for _, pop := range pops {
		nAttrs := len(pop.ds.Schema().Protected)
		for _, c := range configs {
			eval := func(sw func(*Evaluator) *Evaluator) *Evaluator { return sw(mustEvalFunc(t, pop.ds, c.cfg)) }
			for _, alg := range Algorithms() {
				spec := Spec{Algorithm: alg, Seed: 7}
				if alg == "exhaustive" || alg == "exhaustive-cells" {
					spec.Attrs = []int{0}
					if nAttrs > 1 {
						spec.Attrs = []int{0, 1}
					}
					spec.Budget = 300
				}
				run := func(e *Evaluator) (*Result, error) {
					s := spec
					s.Evaluator = e
					return Run(context.Background(), s)
				}
				want, werr := run(eval(rowScatter))
				for _, arm := range arms {
					label := pop.name + "/" + c.name + "/" + alg + "/" + arm.name
					got, gerr := run(eval(arm.use))
					if (gerr != nil) != (werr != nil) {
						t.Fatalf("%s: error %v, row scatter %v", label, gerr, werr)
					}
					if gerr != nil {
						continue // both over the enumeration budget
					}
					compareRowForms(t, label, got, want)
					if spec.Attrs == nil {
						checkCarved(t, label, got)
					}
					if got.Stats != want.Stats {
						t.Errorf("%s: stats %+v, row scatter %+v", label, got.Stats, want.Stats)
					}
					gs, ws := got.Stats, want.Stats
					if a, b := gs.PairsComputed+gs.CacheHits+gs.PairsCopied+gs.PairsPruned,
						ws.PairsComputed+ws.CacheHits+ws.PairsCopied+ws.PairsPruned; a != b {
						t.Errorf("%s: slot total %d, row scatter %d", label, a, b)
					}
				}
			}
			for _, width := range []int{1, 3} {
				want, err := Beam(eval(rowScatter), nil, width)
				if err != nil {
					t.Fatal(err)
				}
				for _, arm := range arms {
					got, err := Beam(eval(arm.use), nil, width)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s/%s/beam-%d/%s", pop.name, c.name, width, arm.name)
					compareRowForms(t, label, got, want)
					checkCarved(t, label, got)
				}
			}
		}
	}
}

func mustEvalFunc(t *testing.T, ds *dataset.Dataset, cfg Config) *Evaluator {
	t.Helper()
	e, err := NewEvaluator(ds, testkit.ScoreFunc(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The collapse must actually shrink the search: a population of few cells
// searches at most cells×bins rows however many workers it holds. A
// population of distinct cells — where the collapse would be the identity
// — and Exact mode search the workers. Equivalence alone would pass a
// regression to worker rows.
func TestCollapsedRowsSize(t *testing.T) {
	ds := randomDataset(t, 3000, 4) // Gender × Language: 6 cells
	e := mustEval(t, ds, Config{Bins: 10})
	if n := e.searchRows().n; n > 60 {
		t.Fatalf("6 cells × 10 bins collapsed to %d rows", n)
	}
	if got := e.searchRows().size(e.searchRoot()); got != ds.N() {
		t.Fatalf("root weighs %d workers, want %d", got, ds.N())
	}
	distinct := distinctCellDataset(t, 500)
	if rs := mustEvalFunc(t, distinct, Config{Bins: 10}).searchRows(); rs.n != distinct.N() || rs.weight != nil {
		t.Fatalf("distinct cells search %d rows (weighted %v), want the %d workers", rs.n, rs.weight != nil, distinct.N())
	}
	if rs := mustEval(t, ds, Config{Exact: true}).searchRows(); rs.n != ds.N() || rs.weight != nil {
		t.Fatalf("Exact mode searches %d rows (weighted %v), want the %d workers", rs.n, rs.weight != nil, ds.N())
	}
}

// BenchmarkDistinctCells measures the collapse where it buys the least:
// pop=distinct gives every worker its own cell (one weight-1 row per
// worker, so the engine searches the workers instead), pop=pairs puts two
// workers in every cell (which the engine collapses). Both row forms run
// on both, via the test switches. The search splits on the two coarse
// attributes (16 parts at most), so the scatter, not the distance work,
// dominates each run.
func BenchmarkDistinctCells(b *testing.B) {
	const n = 100_000
	for _, pop := range []struct {
		name     string
		cellSize int
	}{{"distinct", 1}, {"pairs", 2}} {
		vals := []string{"0", "1", "2", "3"}
		ids := n / 16 / pop.cellSize
		schema := &dataset.Schema{
			Protected: []dataset.Attribute{dataset.Cat("A", vals...), dataset.Cat("B", vals...), dataset.Num("ID", 0, float64(ids), ids)},
			Observed:  []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
		}
		bld := dataset.NewBuilder(schema)
		r := rng.New(1)
		for i := 0; i < n; i++ {
			a, c := i%4, i/4%4
			score := 0.5*float64(a)/3 + 0.3*float64(c)/3 + 0.2*r.Float64()
			bld.Add("w", map[string]any{"A": vals[a], "B": vals[c], "ID": float64(i/16%ids) + 0.5}, map[string]any{"Score": score})
		}
		ds, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		if cells := ds.Cells().N(); cells != n/pop.cellSize {
			b.Fatalf("%d cells, want %d", cells, n/pop.cellSize)
		}
		for _, alg := range []string{"balanced", "unbalanced", "all-attributes"} {
			for _, rows := range []string{"workers", "collapsed"} {
				b.Run(fmt.Sprintf("pop=%s/a=%s/rows=%s", pop.name, alg, rows), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						e, err := NewEvaluator(ds, testkit.ScoreFunc(), Config{Bins: 10})
						if err != nil {
							b.Fatal(err)
						}
						if rows == "workers" {
							rowScatter(e)
						} else {
							forceCollapse(e)
						}
						if _, err := Run(context.Background(), Spec{Algorithm: alg, Evaluator: e, Attrs: []int{0, 1}}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// Concurrent first searches on one fresh evaluator build its row space
// once and agree with a serial run; run under -race.
func TestConcurrentSearchesShareRows(t *testing.T) {
	ds := randomDataset(t, 800, 6)
	want := Balanced(mustEval(t, ds, Config{Bins: 10}), nil)
	e := mustEval(t, ds, Config{Bins: 10})
	algs := []string{"balanced", "unbalanced", "all-attributes", "r-balanced", "balanced", "unbalanced"}
	results := make([]*Result, len(algs))
	errs := make([]error, len(algs))
	var wg sync.WaitGroup
	for i, alg := range algs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = Run(context.Background(), Spec{Algorithm: alg, Evaluator: e, Seed: 1})
		}()
	}
	wg.Wait()
	for i, alg := range algs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", alg, errs[i])
		}
		if alg == "balanced" {
			compareRowForms(t, alg, results[i], want)
		}
	}
}
