package core

import (
	"context"
	"math"
	"sync/atomic"
	"testing"

	"fairrank/internal/testkit"
)

// Tests for the terminal average (finalAvg): its bits, its cancellation,
// and that binned-EMD searches leave the shared pair cache alone.

// finalEvaluator returns an evaluator with the given bins and parallelism
// and k reps of generated PMFs over those bins.
func finalEvaluator(t *testing.T, g *testkit.Gen, bins, parallelism, k int) (*Evaluator, []*rep) {
	t.Helper()
	ds, err := g.WorkerDataset(40)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(ds, testkit.ScoreFunc(), Config{Bins: bins, Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*rep, k)
	for i := range reps {
		reps[i] = &rep{data: g.PMF(bins)}
	}
	return e, reps
}

// TestFinalAvgMatchesTriangle: the terminal average has the bits of avgOf
// over the full triangle, for pair counts below, equal to and above one
// block, rows longer than a block, bins 1, 10 and 64, both inner loops
// (kernel rows where pruning runs, distOf elsewhere), serial and parallel.
func TestFinalAvgMatchesTriangle(t *testing.T) {
	g := testkit.NewGen(17)
	for _, bins := range []int{1, 10, 64} {
		for _, parallelism := range []int{1, 3} {
			for _, k := range []int{1, 2, 3, 4, 5, 9, 40} {
				e, reps := finalEvaluator(t, g, bins, parallelism, k)
				tri := make([]float64, 0, k*(k-1)/2)
				for i := 0; i < k; i++ {
					for j := i + 1; j < k; j++ {
						tri = append(tri, e.distOf(reps[i].data, reps[j].data))
					}
				}
				want := avgOf(tri)
				// Block 6 is above k=3's 3 pairs, equal to k=4's 6 and below
				// k=9's 36, whose first rows (8 pairs) are longer than it.
				for _, block := range []int{1, 3, 6, 7, 64, finalBlock} {
					for _, prune := range []bool{true, false} {
						e.prune = prune
						got := e.finalAvg(context.Background(), reps, block)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("bins %d, parallelism %d, k %d, block %d, prune %v: %v, avgOf %v", bins, parallelism, k, block, prune, got, want)
						}
					}
				}
			}
		}
	}
}

// pollCtx is a context whose Err reports cancellation from its after-th
// call on, counting every call: a cancellation at a fixed point of a loop
// that polls it.
type pollCtx struct {
	context.Context
	after int64
	polls atomic.Int64
}

func (c *pollCtx) Err() error {
	if c.polls.Add(1) >= c.after {
		return context.Canceled
	}
	return nil
}

// TestFinalAvgCancelsPromptly: a cancellation part-way through stops the
// terminal average within a block in both inner loops, instead of filling
// the rest of its triangle. Each block polls the context at least once, so
// a fill that ran on would poll thousands of times.
func TestFinalAvgCancelsPromptly(t *testing.T) {
	g := testkit.NewGen(23)
	e, reps := finalEvaluator(t, g, 10, 2, 400) // 79 800 pairs
	for _, prune := range []bool{true, false} {
		e.prune = prune
		ctx := &pollCtx{Context: context.Background(), after: 5}
		e.finalAvg(ctx, reps, 256) // 312 blocks
		if polls := ctx.polls.Load(); polls > 64 {
			t.Fatalf("prune %v: %d context polls after a cancellation at the 5th", prune, polls)
		}
	}
}

// TestBinnedSearchesKeepNoPairs: in binned-EMD mode every search fills its
// probes and averages its final parts outside the shared pair cache, so
// after balanced, unbalanced, their random baselines, all-attributes and
// Beam have run on a fresh evaluator the cache holds no entry.
func TestBinnedSearchesKeepNoPairs(t *testing.T) {
	ds := pruneDataset(t, 1200, 4)
	e, err := NewEvaluator(ds, testkit.ScoreFunc(), Config{Bins: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"balanced", "unbalanced", "r-balanced", "r-unbalanced", "all-attributes"} {
		if _, err := Run(context.Background(), Spec{Algorithm: alg, Evaluator: e, Seed: 5}); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if _, pairs, _ := e.CacheStats(); pairs != 0 {
			t.Fatalf("%s left %d entries in the pair cache", alg, pairs)
		}
	}
	if _, err := Beam(e, nil, 2); err != nil {
		t.Fatal(err)
	}
	if _, pairs, _ := e.CacheStats(); pairs != 0 {
		t.Fatalf("Beam left %d entries in the pair cache", pairs)
	}
}
