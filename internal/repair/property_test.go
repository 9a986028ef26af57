package repair

import (
	"math"
	"testing"

	"fairrank/internal/testkit"
)

// Property tests over testkit-generated populations and partitionings.

// Repair with amount 0 is the identity, bit for bit.
func TestRepairZeroAmountIsIdentity(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		g := testkit.NewGen(seed)
		ds, err := g.WorkerDataset(g.R.IntRange(2, 150))
		if err != nil {
			t.Fatal(err)
		}
		pt := g.Partitioning(ds)
		scores := g.Scores(ds.N())
		out, err := Scores(scores, pt, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range scores {
			if out[i] != scores[i] {
				t.Fatalf("seed %d: amount=0 changed score %d: %v -> %v", seed, i, scores[i], out[i])
			}
		}
	}
}

// Repair never increases unfairness, at any amount: quantile matching pulls
// every partition toward the same global distribution, so the average
// pairwise EMD can only shrink (verified over 500 seeds before pinning;
// tolerance covers binning noise only).
func TestRepairNeverIncreasesUnfairness(t *testing.T) {
	for seed := uint64(1); seed <= 150; seed++ {
		g := testkit.NewGen(seed)
		ds, err := g.WorkerDataset(g.R.IntRange(2, 150))
		if err != nil {
			t.Fatal(err)
		}
		pt := g.Partitioning(ds)
		scores := g.Scores(ds.N())
		bins := g.R.IntRange(1, 20)
		amount := g.R.Float64()

		before := unfairness(scores, pt, bins)
		repaired, err := Scores(scores, pt, amount)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		after := unfairness(repaired, pt, bins)
		if after > before+testkit.Tol {
			t.Fatalf("seed %d: repair increased unfairness %v -> %v (amount=%v bins=%d)",
				seed, before, after, amount, bins)
		}
	}
}

// Repair preserves within-partition ranking: if a scored below b inside the
// same partition, it stays at or below b after repair, for any amount.
func TestRepairPreservesWithinPartitionRank(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		g := testkit.NewGen(seed)
		ds, err := g.WorkerDataset(g.R.IntRange(2, 120))
		if err != nil {
			t.Fatal(err)
		}
		pt := g.Partitioning(ds)
		scores := g.Scores(ds.N())
		out, err := Scores(scores, pt, g.R.Float64())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, p := range pt.Parts {
			for _, a := range p.Indices {
				for _, b := range p.Indices {
					if scores[a] < scores[b] && out[a] > out[b]+testkit.Tol {
						t.Fatalf("seed %d: rank inverted within partition: %v<%v but %v>%v",
							seed, scores[a], scores[b], out[a], out[b])
					}
				}
			}
		}
	}
}

// Repaired scores stay finite and inside [0,1]: convex combinations of
// in-range scores and in-range global quantiles cannot escape the range.
func TestRepairStaysInRange(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		g := testkit.NewGen(seed)
		ds, err := g.WorkerDataset(g.R.IntRange(2, 150))
		if err != nil {
			t.Fatal(err)
		}
		pt := g.Partitioning(ds)
		scores := g.Scores(ds.N())
		out, err := Scores(scores, pt, g.R.Float64())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, v := range out {
			if math.IsNaN(v) || v < 0 || v > 1 {
				t.Fatalf("seed %d: repaired score %d out of range: %v", seed, i, v)
			}
		}
	}
}
