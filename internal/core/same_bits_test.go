package core_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/partition"
	"fairrank/internal/rng"
	"fairrank/internal/simulate"
)

// TestSamePartitioningSameBits: an average depends only on the multiset
// of its parts. balanced and all-attributes split the paper's 7,300
// workers under f1 into the same 1,767 parts, so they report the same
// float64, and Unfairness of those parts in a shuffled order, on a fresh
// evaluator, reads it too. (Summed pair by pair in each search's own
// order, the two searches differed in the last bits.)
func TestSamePartitioningSameBits(t *testing.T) {
	ds, err := simulate.PaperWorkers(simulate.LargePopulation, 42)
	if err != nil {
		t.Fatal(err)
	}
	funcs, err := simulate.RandomFunctions()
	if err != nil {
		t.Fatal(err)
	}
	run := func(alg string) *core.Result {
		e, err := core.NewEvaluator(ds, funcs[0], core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(context.Background(), core.Spec{Algorithm: alg, Evaluator: e})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	bal, all := run("balanced"), run("all-attributes")
	keys := func(parts []*partition.Partition) []string {
		out := make([]string, len(parts))
		for i, p := range parts {
			out[i] = p.Key()
		}
		slices.Sort(out)
		return out
	}
	if !slices.Equal(keys(bal.Partitioning.Parts), keys(all.Partitioning.Parts)) {
		t.Fatalf("balanced (%d parts) and all-attributes (%d parts) split differently", bal.Partitioning.Size(), all.Partitioning.Size())
	}
	if math.Float64bits(bal.Unfairness) != math.Float64bits(all.Unfairness) {
		t.Fatalf("same %d parts: balanced %v, all-attributes %v", bal.Partitioning.Size(), bal.Unfairness, all.Unfairness)
	}
	parts := slices.Clone(all.Partitioning.Parts)
	r := rng.New(9)
	r.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	e, err := core.NewEvaluator(ds, funcs[0], core.Config{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if u := e.Unfairness(&partition.Partitioning{Parts: parts}); math.Float64bits(u) != math.Float64bits(bal.Unfairness) {
		t.Fatalf("shuffled parts: Unfairness %v, balanced %v", u, bal.Unfairness)
	}
}
