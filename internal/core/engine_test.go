package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/emd"
	"fairrank/internal/rng"
	"fairrank/internal/testkit"
)

// Tests for the pair path's block-wise average (finalAvg): its bits, its
// cancellation, and that searches leave the shared pair cache alone.

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

// TestFinalAvgMatchesTriangle: the block-wise average has the bits of a
// serial sum over the full triangle in slot order, for pair counts below,
// equal to and above one block, rows longer than a block, bins 1, 10 and
// 64, serial and parallel.
func TestFinalAvgMatchesTriangle(t *testing.T) {
	g := testkit.NewGen(17)
	for _, bins := range []int{1, 10, 64} {
		for _, parallelism := range []int{1, 3} {
			for _, k := range []int{1, 2, 3, 4, 5, 9, 40} {
				e, reps := finalEvaluator(t, g, bins, parallelism, k)
				sum, n := 0.0, 0
				for i := 0; i < k; i++ {
					for j := i + 1; j < k; j++ {
						sum += e.distOf(reps[i].data, reps[j].data)
						n++
					}
				}
				want := 0.0
				if n > 0 {
					want = sum / float64(n)
				}
				// Block 6 is above k=3's 3 pairs, equal to k=4's 6 and below
				// k=9's 36, whose first rows (8 pairs) are longer than it.
				for _, block := range []int{1, 3, 6, 7, 64, finalBlock} {
					got := e.finalAvg(context.Background(), reps, parallelism, block)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("bins %d, parallelism %d, k %d, block %d: %v, serial sum %v", bins, parallelism, k, block, got, want)
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
// block-wise average within a block, instead of filling the rest of its
// triangle. Each block polls the context at least once, so a fill that
// ran on would poll thousands of times.
func TestFinalAvgCancelsPromptly(t *testing.T) {
	g := testkit.NewGen(23)
	e, reps := finalEvaluator(t, g, 10, 2, 400) // 79 800 pairs
	ctx := &pollCtx{Context: context.Background(), after: 5}
	e.finalAvg(ctx, reps, 2, 256) // 312 blocks
	if polls := ctx.polls.Load(); polls > 64 {
		t.Fatalf("%d context polls after a cancellation at the 5th", polls)
	}
}

// TestBinnedSearchesKeepNoPairs: every search averages its probes and its
// final parts from scratch, in binned EMD mode and on the pair path alike:
// no run of balanced, unbalanced, their random baselines or all-attributes
// on a shared evaluator is served a distance from a memo, and the exact
// average of binned EMD computes none.
func TestBinnedSearchesKeepNoPairs(t *testing.T) {
	ds := searchDataset(t, 1200, 4)
	for _, cfg := range []Config{{Bins: 10}, {Bins: 10, Metric: emd.MetricKS}} {
		e, err := NewEvaluator(ds, testkit.ScoreFunc(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []string{"balanced", "unbalanced", "r-balanced", "r-unbalanced", "all-attributes"} {
			res, err := Run(context.Background(), Spec{Algorithm: alg, Evaluator: e, Seed: 5})
			if err != nil {
				t.Fatalf("%v %s: %v", cfg.Metric, alg, err)
			}
			if st := res.Stats; st.CacheHits != 0 || (st.PairsComputed == 0) != (cfg.Metric == emd.MetricEMD) {
				t.Fatalf("%v %s: run stats %+v", cfg.Metric, alg, st)
			}
		}
	}
}

// searchDataset builds a population whose score depends on every
// protected attribute with distinct weights, so greedy splits keep paying
// off, the searches go several attributes deep, and the candidate
// averages separate cleanly.
func searchDataset(t *testing.T, n, nAttrs int) *dataset.Dataset {
	t.Helper()
	vals := []string{"a", "b", "c", "d"}
	prot := make([]dataset.Attribute, nAttrs)
	weights := make([]float64, nAttrs)
	totalW := 0.0
	for a := range prot {
		prot[a] = dataset.Cat(fmt.Sprintf("A%d", a), vals...)
		// Near-equal weights keep every split paying off (the average
		// pairwise distance rises as long as each attribute's effect is
		// comparable), while the slight taper separates the candidate
		// averages so the argmax is unambiguous.
		weights[a] = 1 - 0.06*float64(a)
		totalW += weights[a]
	}
	schema := &dataset.Schema{
		Protected: prot,
		Observed:  []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
	b := dataset.NewBuilder(schema)
	r := rng.New(99)
	for i := 0; i < n; i++ {
		pv := map[string]any{}
		score := 0.0
		for a := range prot {
			v := r.Intn(len(vals))
			pv[prot[a].Name] = vals[v]
			score += weights[a] / totalW * float64(v) / float64(len(vals)-1)
		}
		score = 0.92*score + 0.08*r.Float64()
		b.Add(fmt.Sprintf("w%d", i), pv, map[string]any{"Score": score})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatalf("searchDataset: %v", err)
	}
	return ds
}
