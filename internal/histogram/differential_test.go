package histogram

import (
	"math"
	"testing"

	"fairrank/internal/testkit"
)

// Differential tests: the precomputed-width/scatter histogram paths against
// the oracle's one-branchy-pass counting, over generated inputs including
// the non-finite specials the public Add contract must clamp.

func TestHistogramMatchesOracleCounts(t *testing.T) {
	var o testkit.Oracle
	for seed := uint64(1); seed <= 200; seed++ {
		g := testkit.NewGen(seed)
		bins := g.R.IntRange(1, 30)
		n := g.R.IntRange(0, 300)
		vals := make([]float64, n)
		for i := range vals {
			// Mostly in-range, some below/above to exercise clamping.
			vals[i] = g.R.FloatRange(-0.3, 1.3)
		}
		h := MustNew(bins, 0, 1)
		h.AddAll(vals)
		want := o.Counts(vals, bins, 0, 1)
		got := h.Counts()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d bin %d: count %v, oracle %v", seed, i, got[i], want[i])
			}
		}
	}
}

func TestHistogramSpecialValuesMatchOracle(t *testing.T) {
	var o testkit.Oracle
	for seed := uint64(1); seed <= 100; seed++ {
		g := testkit.NewGen(seed)
		raw := make([]byte, g.R.IntRange(0, 64))
		for i := range raw {
			raw[i] = byte(g.R.Intn(256))
		}
		vals := testkit.SpecialFloats(raw)
		// Infinities clamp to edge bins like any out-of-range value; NaN to 0.
		h := MustNew(10, 0, 1)
		h.AddAll(vals)
		want := o.Counts(vals, 10, 0, 1)
		got := h.Counts()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d bin %d: count %v, oracle %v (vals %v)", seed, i, got[i], want[i], vals)
			}
		}
	}
}

func TestNormalizeCountsMatchesOraclePMF(t *testing.T) {
	var o testkit.Oracle
	for seed := uint64(1); seed <= 100; seed++ {
		g := testkit.NewGen(seed)
		bins := g.R.IntRange(1, 20)
		counts := make([]float64, bins)
		if g.R.Intn(5) > 0 { // leave 1 in 5 rows all-zero
			for i := range counts {
				counts[i] = float64(g.R.Intn(20))
			}
		}
		got := NormalizeCounts(counts)
		want := o.PMF(counts)
		for i := range want {
			if math.Abs(got[i]-want[i]) > testkit.Tol {
				t.Fatalf("seed %d bin %d: %v, oracle %v", seed, i, got[i], want[i])
			}
		}
	}
}

// Merge-then-split identity: histogramming a population in one pass equals
// histogramming two halves and merging — the invariant the engine's
// single-pass SplitObserve scatter depends on.
func TestMergeEqualsSinglePass(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		g := testkit.NewGen(seed)
		bins := g.R.IntRange(1, 25)
		vals := g.Scores(g.R.IntRange(2, 200))
		cut := g.R.IntRange(1, len(vals)-1)

		whole := MustNew(bins, 0, 1)
		whole.AddAll(vals)

		left := MustNew(bins, 0, 1)
		left.AddAll(vals[:cut])
		right := MustNew(bins, 0, 1)
		right.AddAll(vals[cut:])
		if err := left.Merge(right); err != nil {
			t.Fatalf("seed %d: merge: %v", seed, err)
		}

		for i := 0; i < bins; i++ {
			if left.Count(i) != whole.Count(i) {
				t.Fatalf("seed %d bin %d: merged %v, single-pass %v", seed, i, left.Count(i), whole.Count(i))
			}
		}
	}
}

// Regression: int(math.Floor(+Inf)) overflows to a negative int, so
// BinIndex(+Inf) used to clamp low instead of high. At-or-above-max values,
// infinite or just astronomically large, belong in the last bin.
func TestBinIndexInfinityClampsHigh(t *testing.T) {
	h := MustNew(8, 0, 1)
	if got := h.BinIndex(math.Inf(1)); got != 7 {
		t.Fatalf("BinIndex(+Inf) = %d, want 7", got)
	}
	if got := h.BinIndex(1e300); got != 7 {
		t.Fatalf("BinIndex(1e300) = %d, want 7", got)
	}
	if got := h.BinIndex(math.Inf(-1)); got != 0 {
		t.Fatalf("BinIndex(-Inf) = %d, want 0", got)
	}
	if got := h.BinIndex(-1e300); got != 0 {
		t.Fatalf("BinIndex(-1e300) = %d, want 0", got)
	}
}
