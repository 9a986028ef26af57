package emd

import (
	"math"
	"sort"
	"testing"

	"fairrank/internal/testkit"
)

// Differential tests: every EMD entry point in this package against the
// testkit oracles. These complement the fixed-fixture tests in emd_test.go
// with generated inputs and the shared metamorphic suite.

func TestPMFDistanceMetamorphic(t *testing.T) {
	testkit.CheckEMDProperties(t, "PMFDistance", PMFDistance, 300)
}

// Exact1DSorted (CDF sweep) against the oracle's explicit monotone
// coupling.
func TestExact1DMatchesWpFlow(t *testing.T) {
	var o testkit.Oracle
	for seed := uint64(1); seed <= 300; seed++ {
		g := testkit.NewGen(seed)
		xs := g.Scores(g.R.IntRange(1, 40))
		ys := g.Scores(g.R.IntRange(1, 40))
		sort.Float64s(xs)
		sort.Float64s(ys)
		got := Exact1DSorted(xs, ys)
		want := o.WpFlow(xs, ys, 1)
		if math.Abs(got-want) > testkit.Tol {
			t.Fatalf("seed %d: Exact1DSorted = %v, flow oracle = %v (|xs|=%d |ys|=%d)",
				seed, got, want, len(xs), len(ys))
		}
	}
}

// Edge cases surfaced by the bugfix sweep, pinned so they stay fixed.

func TestPMFDistanceSingleBin(t *testing.T) {
	// One bin: no ground distance to cover, so any two PMFs are at 0.
	if d := PMFDistance([]float64{1}, []float64{1}, 0.5); d != 0 {
		t.Fatalf("single-bin distance = %v, want 0", d)
	}
}

func TestPMFDistanceEmpty(t *testing.T) {
	// Zero-length PMFs truncate to an empty sum.
	if d := PMFDistance(nil, nil, 1); d != 0 {
		t.Fatalf("empty distance = %v, want 0", d)
	}
	if d := PMFDistance([]float64{1}, nil, 1); d != 0 {
		t.Fatalf("mismatched empty distance = %v, want 0", d)
	}
}
