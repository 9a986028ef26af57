package repair

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"fairrank/internal/partition"
	"fairrank/internal/rng"
	"fairrank/internal/scoring"
	"fairrank/internal/simulate"
	"fairrank/internal/testkit"
)

// biasedSetup builds a gender-biased scored population and the gender
// partitioning.
func biasedSetup(t *testing.T, n int, seed uint64) ([]float64, *partition.Partitioning) {
	t.Helper()
	ds, err := simulate.PaperWorkers(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	f6, err := scoring.NewRuleFunc("f6", seed, []scoring.Rule{
		{When: scoring.AttrIs("Gender", "Male"), Lo: 0.8, Hi: 1.0},
		{When: scoring.AttrIs("Gender", "Female"), Lo: 0.0, Hi: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	scores := scoring.Scores(ds, f6)
	gender := ds.Schema().ProtectedIndex("Gender")
	parts := partition.Split(ds, partition.Root(ds), gender)
	return scores, &partition.Partitioning{Parts: parts}
}

// unfairness measures a score column's unfairness over pt with testkit's
// literal pair-sum oracle: score-unit EMD over bins histogram bins.
func unfairness(scores []float64, pt *partition.Partitioning, bins int) float64 {
	return testkit.Oracle{}.Unfairness(scores, testkit.IndexParts(pt), bins)
}

func TestValidation(t *testing.T) {
	scores, pt := biasedSetup(t, 50, 1)
	if _, err := Scores(nil, pt, 1); err == nil {
		t.Error("empty scores accepted")
	}
	if _, err := Scores(scores, nil, 1); err == nil {
		t.Error("nil partitioning accepted")
	}
	if _, err := Scores(scores, &partition.Partitioning{}, 1); err == nil {
		t.Error("empty partitioning accepted")
	}
	if _, err := Scores(scores, pt, -0.1); err == nil {
		t.Error("negative amount accepted")
	}
	if _, err := Scores(scores, pt, 1.1); err == nil {
		t.Error("amount > 1 accepted")
	}
	if _, err := Scores(scores, pt, math.NaN()); err == nil {
		t.Error("NaN amount accepted")
	}
	short := &partition.Partitioning{Parts: []*partition.Partition{{Indices: []int{0, 1}}}}
	if _, err := Scores(scores, short, 1); err == nil {
		t.Error("incomplete partitioning accepted")
	}
	oob := &partition.Partitioning{Parts: []*partition.Partition{{Indices: []int{9999}}}}
	if _, err := Scores(scores, oob, 1); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestAmountZeroIsIdentity(t *testing.T) {
	scores, pt := biasedSetup(t, 100, 2)
	out, err := Scores(scores, pt, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scores {
		if out[i] != scores[i] {
			t.Fatalf("amount=0 changed score %d: %v -> %v", i, scores[i], out[i])
		}
	}
}

func TestInputNotMutated(t *testing.T) {
	scores, pt := biasedSetup(t, 100, 3)
	orig := append([]float64(nil), scores...)
	if _, err := Scores(scores, pt, 1); err != nil {
		t.Fatal(err)
	}
	for i := range scores {
		if scores[i] != orig[i] {
			t.Fatal("input scores mutated")
		}
	}
}

func TestFullRepairRemovesGenderGap(t *testing.T) {
	scores, pt := biasedSetup(t, 500, 4)
	before := unfairness(scores, pt, 10)
	repaired, err := Scores(scores, pt, 1)
	if err != nil {
		t.Fatal(err)
	}
	after := unfairness(repaired, pt, 10)
	if before < 0.7 {
		t.Fatalf("before = %v; bias setup broken", before)
	}
	if after > 0.05 {
		t.Fatalf("after = %v; full repair did not equalize distributions", after)
	}
}

func TestPartialRepairMonotone(t *testing.T) {
	scores, pt := biasedSetup(t, 300, 5)
	prev := math.Inf(1)
	for _, amount := range []float64{0, 0.25, 0.5, 0.75, 1} {
		repaired, err := Scores(scores, pt, amount)
		if err != nil {
			t.Fatal(err)
		}
		u := unfairness(repaired, pt, 10)
		if u > prev+0.02 { // allow tiny binning noise
			t.Fatalf("unfairness increased at amount=%v: %v -> %v", amount, prev, u)
		}
		prev = u
	}
}

// Property: repair preserves the within-partition ranking of workers.
func TestWithinPartitionOrderPreservedProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 20 + r.Intn(100)
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = r.Float64()
		}
		// Random 3-way partitioning.
		parts := make([]*partition.Partition, 3)
		for k := range parts {
			parts[k] = &partition.Partition{}
		}
		for i := range scores {
			k := r.Intn(3)
			parts[k].Indices = append(parts[k].Indices, i)
		}
		var nonEmpty []*partition.Partition
		for _, p := range parts {
			if len(p.Indices) > 0 {
				nonEmpty = append(nonEmpty, p)
			}
		}
		pt := &partition.Partitioning{Parts: nonEmpty}
		repaired, err := Scores(scores, pt, 1)
		if err != nil {
			return false
		}
		for _, p := range nonEmpty {
			idx := append([]int(nil), p.Indices...)
			sort.Slice(idx, func(a, b int) bool {
				if scores[idx[a]] != scores[idx[b]] {
					return scores[idx[a]] < scores[idx[b]]
				}
				return idx[a] < idx[b]
			})
			for j := 1; j < len(idx); j++ {
				if repaired[idx[j]] < repaired[idx[j-1]]-1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: repaired scores stay in [0,1] when inputs do.
func TestRepairStaysInRangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		scores, pt := func() ([]float64, *partition.Partitioning) {
			r := rng.New(seed)
			n := 10 + r.Intn(50)
			scores := make([]float64, n)
			for i := range scores {
				scores[i] = r.Float64()
			}
			half := n / 2
			pt := &partition.Partitioning{Parts: []*partition.Partition{
				{Indices: seq(0, half)}, {Indices: seq(half, n)},
			}}
			return scores, pt
		}()
		for _, amount := range []float64{0.3, 1} {
			out, err := Scores(scores, pt, amount)
			if err != nil {
				return false
			}
			for _, v := range out {
				if v < 0 || v > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}
