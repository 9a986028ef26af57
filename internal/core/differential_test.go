package core

import (
	"fmt"
	"math"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/partition"
	"fairrank/internal/scoring"
	"fairrank/internal/testkit"
)

// Differential tests: the cached/parallel/incremental evaluator against the
// testkit oracle's rebuild-everything pipeline, over generated datasets and
// partitionings. These complement reference_test.go (which pins the engine to
// an in-package reference on fixed schemas) with an out-of-package oracle and
// arbitrary index-set partitions.

// namedParts wraps bare row-index groups as partitions named after their
// rows, so each group keeps a distinct Key.
func namedParts(groups [][]int) []*partition.Partition {
	out := make([]*partition.Partition, len(groups))
	for i, g := range groups {
		out[i] = &partition.Partition{Name: testkit.BlockKey([][]int{g}), Indices: g}
	}
	return out
}

// The binned evaluator over arbitrary partitions must match the oracle's
// naive histogram → PMF → pairwise-flow pipeline. Runs through the shared
// metamorphic unfairness suite, which also checks permutation and
// merge-then-split invariance.
func TestEvaluatorMatchesUnfairnessOracle(t *testing.T) {
	testkit.CheckUnfairnessOracle(t, "Evaluator.AvgPairwise", func(scores []float64, parts [][]int, bins int) float64 {
		ds, f := scoredDataset(t, scores)
		e, err := NewEvaluator(ds, f, Config{Bins: bins})
		if err != nil {
			t.Fatalf("NewEvaluator: %v", err)
		}
		return e.AvgPairwise(namedParts(parts))
	}, 60)
}

// Exact mode (bin-free empirical distributions) against the oracle's
// explicit monotone-coupling W1.
func TestEvaluatorExactMatchesOracle(t *testing.T) {
	var o testkit.Oracle
	for seed := uint64(1); seed <= 60; seed++ {
		g := testkit.NewGen(seed)
		n := g.R.IntRange(2, 150)
		scores := g.Scores(n)
		parts := testkit.RandomParts(g, n)

		ds, f := scoredDataset(t, scores)
		e, err := NewEvaluator(ds, f, Config{Exact: true})
		if err != nil {
			t.Fatalf("seed %d: NewEvaluator: %v", seed, err)
		}
		got := e.AvgPairwise(namedParts(parts))
		want := o.ExactUnfairness(scores, parts)
		if math.Abs(got-want) > testkit.Tol {
			t.Fatalf("seed %d: exact unfairness = %v, oracle %v (n=%d k=%d)", seed, got, want, n, len(parts))
		}
	}
}

// Hierarchical-split partitionings from the generator, evaluated through
// Unfairness (the constraint-keyed cache path rather than named parts),
// must also match the oracle on the induced index sets.
func TestUnfairnessOnGeneratedPartitionings(t *testing.T) {
	var o testkit.Oracle
	for seed := uint64(1); seed <= 60; seed++ {
		g := testkit.NewGen(seed)
		ds, err := g.WorkerDataset(g.R.IntRange(2, 120))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		pt := g.Partitioning(ds)
		bins := g.R.IntRange(1, 20)
		e, err := NewEvaluator(ds, testkit.ScoreFunc(), Config{Bins: bins})
		if err != nil {
			t.Fatalf("seed %d: NewEvaluator: %v", seed, err)
		}
		got := e.Unfairness(pt)
		want := o.Unfairness(e.Scores(), testkit.IndexParts(pt), bins)
		if math.Abs(got-want) > testkit.Tol {
			t.Fatalf("seed %d: unfairness = %v, oracle %v (parts=%d bins=%d)", seed, got, want, len(pt.Parts), bins)
		}
	}
}

// scoredDataset builds a one-attribute dataset whose observed column holds
// exactly the given scores, plus the identity scoring function over it.
// Observed values are stored raw, so the evaluator's score column is the
// input slice value-for-value.
func scoredDataset(t *testing.T, scores []float64) (*dataset.Dataset, scoring.Func) {
	t.Helper()
	schema := &dataset.Schema{
		Protected: []dataset.Attribute{dataset.Cat("P0", "a", "b")},
		Observed:  []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
	b := dataset.NewBuilder(schema)
	for i, s := range scores {
		b.Add(fmt.Sprintf("w%d", i), map[string]any{"P0": "a"}, map[string]any{"Score": s})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatalf("scoredDataset: %v", err)
	}
	return ds, testkit.ScoreFunc()
}
