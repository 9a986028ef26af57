package core

import (
	"context"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/partition"
	"fairrank/internal/rng"
	"fairrank/internal/scoring"
)

func TestBeamValidation(t *testing.T) {
	ds := randomDataset(t, 50, 1)
	e := mustEval(t, ds, Config{})
	if _, err := Beam(e, nil, 0); err == nil {
		t.Error("width 0 accepted")
	}
}

func TestBeamValidAndAtLeastBalanced(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		ds := randomDataset(t, 120, 200+seed)
		e := mustEval(t, ds, Config{})
		bal := Balanced(e, nil)
		beam, err := Beam(e, nil, 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := beam.Partitioning.Validate(ds); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// A width-3 beam explores a superset of balanced's frontier and
		// keeps the best state ever seen, so it cannot do worse.
		if beam.Unfairness < bal.Unfairness-1e-9 {
			t.Errorf("seed %d: beam %v < balanced %v", seed, beam.Unfairness, bal.Unfairness)
		}
	}
}

func TestBeamBoundedByExhaustive(t *testing.T) {
	ds := randomDataset(t, 60, 77)
	e := mustEval(t, ds, Config{})
	ex, err := Exhaustive(e, nil, 100000)
	if err != nil {
		t.Fatal(err)
	}
	beam, err := Beam(e, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if beam.Unfairness > ex.Unfairness+1e-9 {
		t.Fatalf("beam %v beat exhaustive %v", beam.Unfairness, ex.Unfairness)
	}
}

func TestBeamEmptyAttrs(t *testing.T) {
	ds := randomDataset(t, 40, 3)
	e := mustEval(t, ds, Config{})
	res, err := Beam(e, []int{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitioning.Size() != 1 || res.Unfairness != 0 {
		t.Fatalf("no-attr beam: %d parts, %v", res.Partitioning.Size(), res.Unfairness)
	}
}

func TestSignificanceDetectsDesignedBias(t *testing.T) {
	ds, f6 := genderBiased(t, 300, 91)
	e, err := NewEvaluator(ds, f6, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res := Balanced(e, nil)
	p, obs, err := Significance(context.Background(), e, res.Partitioning, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if obs < 0.7 {
		t.Fatalf("observed = %v", obs)
	}
	if p > 0.01 {
		t.Fatalf("p = %v for designed bias, want < 0.01", p)
	}
}

func TestSignificanceNullNotSignificant(t *testing.T) {
	// A gender split of uniformly random scores should not be significant
	// (the gender split's EMD is pure sampling noise, and the permutation
	// distribution is that same noise).
	ds := randomDataset(t, 300, 93)
	e := mustEval(t, ds, Config{})
	parts := partition.Split(ds, partition.Root(ds), 0)
	pt := &partition.Partitioning{Parts: parts}
	p, _, err := Significance(context.Background(), e, pt, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.02 {
		t.Fatalf("null p = %v, suspiciously significant", p)
	}
}

// Random labels over scores that all fall in one bin: binned mode sees no
// disparity at all, and Exact mode must see only noise. Exact mode's
// permutations have to be measured bin-free like its observation, or every
// shuffle reads 0 against a positive observed value and the test reports
// p = 1/(rounds+1).
func TestSignificanceExactModeNull(t *testing.T) {
	r := rng.New(97)
	b := dataset.NewBuilder(testSchema())
	for i := 0; i < 400; i++ {
		addWorker(b, rng.Pick(r, []string{"Male", "Female"}), "English", 0.1*r.Float64())
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pt := &partition.Partitioning{Parts: partition.Split(ds, partition.Root(ds), 0)}
	for _, exact := range []bool{false, true} {
		p, obs, err := Significance(context.Background(), mustEval(t, ds, Config{Exact: exact}), pt, 200, 7)
		if err != nil {
			t.Fatal(err)
		}
		if p < 0.02 {
			t.Errorf("Exact=%v: p = %v (observed %v) for random labels, want not significant", exact, p, obs)
		}
	}
}

func TestSignificanceValidation(t *testing.T) {
	ds := randomDataset(t, 50, 95)
	e := mustEval(t, ds, Config{})
	if _, _, err := Significance(context.Background(), e, nil, 10, 1); err == nil {
		t.Error("nil partitioning accepted")
	}
	bad := &partition.Partitioning{Parts: []*partition.Partition{{Indices: []int{0}}}}
	if _, _, err := Significance(context.Background(), e, bad, 10, 1); err == nil {
		t.Error("incomplete partitioning accepted")
	}
	good := &partition.Partitioning{Parts: partition.Split(ds, partition.Root(ds), 0)}
	if _, _, err := Significance(context.Background(), e, good, 0, 1); err == nil {
		t.Error("zero rounds accepted")
	}
}

func TestExactModeCloseToFineBinned(t *testing.T) {
	// Exact EMD must approximate the limit of ever finer binning: the
	// 1000-bin evaluation should sit within a hair of the exact one,
	// while the 5-bin evaluation is visibly coarser.
	ds := randomDataset(t, 400, 301)
	exact := mustEval(t, ds, Config{Exact: true})
	fine := mustEval(t, ds, Config{Bins: 1000})
	coarse := mustEval(t, ds, Config{Bins: 5})
	parts := partition.Split(ds, partition.Root(ds), 0)
	de := exact.AvgPairwise(parts)
	df := fine.AvgPairwise(parts)
	dc := coarse.AvgPairwise(parts)
	if d := de - df; d > 0.01 || d < -0.01 {
		t.Fatalf("exact %v vs 1000-bin %v differ too much", de, df)
	}
	if dAbs(de-dc) <= dAbs(de-df) {
		t.Fatalf("coarse binning (%v) unexpectedly closer to exact (%v) than fine (%v)", dc, de, df)
	}
}

func dAbs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestExactModeAlgorithmsRun(t *testing.T) {
	ds, f6 := genderBiased(t, 300, 303)
	e, err := NewEvaluator(ds, f6, Config{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	res := Balanced(e, nil)
	if err := res.Partitioning.Validate(ds); err != nil {
		t.Fatal(err)
	}
	// Exact EMD on f6's gender split: mean gap ≈ 0.8.
	if res.Unfairness < 0.75 || res.Unfairness > 0.85 {
		t.Fatalf("exact f6 unfairness = %v, want ~0.8", res.Unfairness)
	}
	used := res.Partitioning.AttributesUsed()
	if len(used) != 1 || used[0] != 0 {
		t.Fatalf("exact mode used attributes %v", used)
	}
}

func TestExactModeParallelMatchesSerial(t *testing.T) {
	schema := &dataset.Schema{
		Protected: []dataset.Attribute{dataset.Num("Cell", 0, 1, 100)},
		Observed:  []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
	r := rng.New(31)
	b := dataset.NewBuilder(schema)
	for i := 0; i < 1500; i++ {
		b.Add("w", map[string]any{"Cell": r.Float64()}, map[string]any{"Score": r.Float64()})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := scoring.ScoreFunc{FuncName: "s", Fn: func(ds *dataset.Dataset, i int) float64 {
		return ds.Observed(0, i)
	}}
	serial, _ := NewEvaluator(ds, f, Config{Exact: true, Parallelism: 1})
	par, _ := NewEvaluator(ds, f, Config{Exact: true, Parallelism: 4})
	parts := partition.Split(ds, partition.Root(ds), 0)
	a := serial.AvgPairwise(parts)
	b2 := par.AvgPairwise(parts)
	if dAbs(a-b2) > 1e-9 {
		t.Fatalf("exact serial %v != parallel %v", a, b2)
	}
}

func TestExhaustiveCellsDominatesTreeExhaustive(t *testing.T) {
	// The cell-grouping space is a superset of the tree space: its
	// optimum must be >= the tree optimum, and on the Figure-1 instance
	// both see the designed optimum.
	ds := figure1Dataset(t)
	e := mustEval(t, ds, Config{Bins: 10})
	tree, err := Exhaustive(e, nil, 100000)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := ExhaustiveCells(e, nil, 1000000)
	if err != nil {
		t.Fatal(err)
	}
	if cells.Unfairness < tree.Unfairness-1e-9 {
		t.Fatalf("cell optimum %v below tree optimum %v", cells.Unfairness, tree.Unfairness)
	}
	if err := cells.Partitioning.Validate(ds); err != nil {
		t.Fatal(err)
	}
}

func TestExhaustiveCellsBudget(t *testing.T) {
	ds := randomDataset(t, 60, 305)
	e := mustEval(t, ds, Config{})
	// Gender×Language = 6 cells → Bell(6) = 203 groupings; budget 10 must
	// trip.
	if _, err := ExhaustiveCells(e, []int{0, 1}, 10); err != partition.ErrBudgetExceeded {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestMinPartitionSizeGuard(t *testing.T) {
	ds := randomDataset(t, 100, 97)
	// every runs each algorithm, the exhaustive solvers included.
	every := func(e *Evaluator) []*Result {
		tree, err := Exhaustive(e, nil, 100000)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := ExhaustiveCells(e, nil, 100000)
		if err != nil {
			t.Fatal(err)
		}
		return []*Result{Balanced(e, nil), Unbalanced(e, nil), AllAttributes(e, nil), tree, cells}
	}
	// With a huge minimum, nothing can ever be split: every algorithm
	// returns the root partitioning.
	e := mustEval(t, ds, Config{MinPartitionSize: 1000})
	for _, res := range every(e) {
		if res.Partitioning.Size() != 1 {
			t.Errorf("%s split despite MinPartitionSize: %d parts",
				res.Algorithm, res.Partitioning.Size())
		}
	}
	// With a moderate minimum, all partitions respect it.
	e2 := mustEval(t, ds, Config{MinPartitionSize: 10})
	for _, res := range every(e2) {
		if err := res.Partitioning.Validate(ds); err != nil {
			t.Fatalf("%s: %v", res.Algorithm, err)
		}
		for _, p := range res.Partitioning.Parts {
			if p.Size() < 10 {
				t.Errorf("%s produced partition of size %d < 10", res.Algorithm, p.Size())
			}
		}
	}
	// Default (0 → 1) reproduces unguarded behavior.
	e3 := mustEval(t, ds, Config{})
	e4 := mustEval(t, ds, Config{MinPartitionSize: 1})
	if Balanced(e3, nil).Unfairness != Balanced(e4, nil).Unfairness {
		t.Error("MinPartitionSize default changed behavior")
	}
}
