package rerank

import (
	"errors"
	"testing"

	"fairrank/internal/marketplace"
	"fairrank/internal/testkit"
)

// Metamorphic relations: transformations of the input whose effect on
// the output is known exactly, with no oracle needed.

// Re-rankers consume the pool as a set — shuffling the input order must
// not change the page (splitPool selects per group; nothing may depend
// on arrival order).
func TestInputPermutationInvariance(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		g := testkit.NewGen(seed)
		ds, err := g.WorkerDataset(g.R.IntRange(4, 80))
		if err != nil {
			t.Fatal(err)
		}
		pool := scoreSorted(g, ds)
		shuffled := make([]marketplace.RankedWorker, len(pool))
		for i, j := range g.R.Perm(len(pool)) {
			shuffled[i] = pool[j]
		}
		k := g.R.IntRange(1, len(pool))
		p := Params{Epsilon: g.R.Float64(), Alpha: g.R.FloatRange(0.05, 0.25)}
		for _, name := range Rerankers() {
			a, errA := Serve(nil, name, ds, 0, pool, k, p)
			b, errB := Serve(nil, name, ds, 0, shuffled, k, p)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("seed %d %s: error depends on input order: %v vs %v", seed, name, errA, errB)
			}
			if errA != nil {
				if errors.Is(errA, ErrInfeasible) {
					continue
				}
				t.Fatalf("seed %d %s: %v", seed, name, errA)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d %s: input order changed position %d: %v vs %v",
						seed, name, i, a[i], b[i])
				}
			}
		}
	}
}

// Det* and fair-topk constraints depend only on pool shares, never on
// score magnitudes: translating every score by a constant must yield the
// same worker sequence. (exposure-parity is deliberately excluded — its
// epsilon is an absolute score bound.)
func TestScoreTranslationInvariance(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		g := testkit.NewGen(seed)
		ds, err := g.WorkerDataset(g.R.IntRange(4, 80))
		if err != nil {
			t.Fatal(err)
		}
		pool := scoreSorted(g, ds)
		shift := g.R.FloatRange(0.5, 4)
		shifted := make([]marketplace.RankedWorker, len(pool))
		for i, rw := range pool {
			shifted[i] = marketplace.RankedWorker{Worker: rw.Worker, Score: rw.Score + shift, Rank: rw.Rank}
		}
		k := g.R.IntRange(1, len(pool))
		p := Params{Alpha: g.R.FloatRange(0.05, 0.25)}
		for _, name := range []string{"det-greedy", "det-cons", "det-relaxed", "fair-topk"} {
			a, errA := Serve(nil, name, ds, 0, pool, k, p)
			b, errB := Serve(nil, name, ds, 0, shifted, k, p)
			if errors.Is(errA, ErrInfeasible) && errors.Is(errB, ErrInfeasible) {
				continue
			}
			if errA != nil || errB != nil {
				t.Fatalf("seed %d %s: %v / %v", seed, name, errA, errB)
			}
			for i := range a {
				if a[i].Worker != b[i].Worker {
					t.Fatalf("seed %d %s: translation changed position %d: worker %d vs %d",
						seed, name, i, a[i].Worker, b[i].Worker)
				}
			}
		}
	}
}

// Raising the significance level makes the per-prefix test stricter:
// MTable entries never decrease in alpha, and the multiple-testing
// adjustment only ever lowers alpha.
func TestAlphaMonotonicity(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		g := testkit.NewGen(seed)
		k := g.R.IntRange(1, 50)
		p := g.R.FloatRange(0.05, 0.95)
		a1 := g.R.FloatRange(0.01, 0.2)
		a2 := a1 + g.R.FloatRange(0.01, 0.3)
		lo, hi := MTable(k, p, a1), MTable(k, p, a2)
		for i := range lo {
			if hi[i] < lo[i] {
				t.Fatalf("seed %d (k=%d p=%v): raising alpha %v->%v dropped entry %d: %d -> %d",
					seed, k, p, a1, a2, i, lo[i], hi[i])
			}
		}
		if ac := AdjustAlpha(k, p, a1); ac > a1 {
			t.Fatalf("seed %d: adjustment raised alpha %v -> %v", seed, a1, ac)
		}
	}
}

// Growing the page can only grow each prefix's obligation: for k1 <= k2,
// the k2 table restricted to the first k1 prefixes is entry-wise >= ...
// actually identical for the unadjusted table (each prefix is tested
// independently) and >= is the safe claim after adjustment (a longer
// family forces a smaller alpha_c, hence smaller entries). Both pinned.
func TestTableLengthRelations(t *testing.T) {
	for seed := uint64(1); seed <= 30; seed++ {
		g := testkit.NewGen(seed)
		k1 := g.R.IntRange(1, 30)
		k2 := k1 + g.R.IntRange(1, 30)
		p := g.R.FloatRange(0.1, 0.9)
		alpha := g.R.FloatRange(0.02, 0.25)
		short, long := MTable(k1, p, alpha), MTable(k2, p, alpha)
		for i := 0; i <= k1; i++ {
			if short[i] != long[i] {
				t.Fatalf("seed %d: unadjusted prefix %d differs across lengths: %d vs %d",
					seed, i, short[i], long[i])
			}
		}
		adjShort, adjLong := AdjustedMTable(k1, p, alpha), AdjustedMTable(k2, p, alpha)
		for i := 0; i <= k1; i++ {
			if adjLong[i] > adjShort[i] {
				t.Fatalf("seed %d: longer family tightened prefix %d: %d > %d",
					seed, i, adjLong[i], adjShort[i])
			}
		}
	}
}
