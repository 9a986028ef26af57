package testkit

import (
	"math"
	"testing"
)

// The fairness oracles are the root of trust for the re-ranking
// differential suite, so they get pinned to hand-computable cases and
// cross-checked against independent formulations before internal/rerank
// relies on them.

func TestBinomialPMFKnownValues(t *testing.T) {
	var o Oracle
	cases := []struct {
		n, c int
		p    float64
		want float64
	}{
		{2, 0, 0.5, 0.25},
		{2, 1, 0.5, 0.5},
		{2, 2, 0.5, 0.25},
		{4, 2, 0.5, 6.0 / 16}, // C(4,2)/2^4
		{3, 1, 0.25, 3 * 0.25 * 0.75 * 0.75},
		{5, 0, 0.2, math.Pow(0.8, 5)},
		{5, 5, 0.2, math.Pow(0.2, 5)},
		{3, -1, 0.5, 0},
		{3, 4, 0.5, 0},
		{0, 0, 0.7, 1}, // empty prefix: certainly zero successes
	}
	for i, c := range cases {
		if got := o.BinomialPMF(c.n, c.c, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: PMF(%d,%d,%v) = %v, want %v", i, c.n, c.c, c.p, got, c.want)
		}
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	var o Oracle
	for seed := uint64(1); seed <= 100; seed++ {
		g := NewGen(seed)
		n := g.R.IntRange(1, 60)
		p := g.R.FloatRange(0.01, 0.99)
		sum := 0.0
		for c := 0; c <= n; c++ {
			sum += o.BinomialPMF(n, c, p)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("seed %d: PMF over n=%d p=%v sums to %v", seed, n, p, sum)
		}
		if cdf := o.BinomialCDF(n, n, p); math.Abs(cdf-1) > 1e-9 {
			t.Fatalf("seed %d: full CDF = %v", seed, cdf)
		}
	}
}

// The FA*IR paper's running example: p = 0.5, alpha = 0.1, k = 10 yields
// the minimum-count table (0,0,0,1,1,1,2,2,3,3) — worked by hand from
// F(m; i, 0.5) > 0.1.
func TestFairTopKTablePaperExample(t *testing.T) {
	var o Oracle
	want := []int{0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3}
	got := o.FairTopKTable(10, 0.5, 0.1)
	if len(got) != len(want) {
		t.Fatalf("table length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %d, want %d (table %v)", i, got[i], want[i], got)
		}
	}
}

func TestFairTopKTableShape(t *testing.T) {
	var o Oracle
	for seed := uint64(1); seed <= 60; seed++ {
		g := NewGen(seed)
		k := g.R.IntRange(1, 25)
		p := g.R.FloatRange(0.05, 0.95)
		alpha := g.R.FloatRange(0.01, 0.3)
		tbl := o.FairTopKTable(k, p, alpha)
		if tbl[0] != 0 {
			t.Fatalf("seed %d: entry 0 = %d", seed, tbl[0])
		}
		for i := 1; i <= k; i++ {
			if tbl[i] < tbl[i-1] {
				t.Fatalf("seed %d: table not monotone at %d: %v", seed, i, tbl)
			}
			if tbl[i] > tbl[i-1]+1 {
				t.Fatalf("seed %d: table jumped by >1 at %d: %v", seed, i, tbl)
			}
			// Defining property: F(m) > alpha and F(m-1) <= alpha.
			if o.BinomialCDF(tbl[i], i, p) <= alpha {
				t.Fatalf("seed %d: F(%d;%d) <= alpha", seed, tbl[i], i)
			}
			if tbl[i] > 0 && o.BinomialCDF(tbl[i]-1, i, p) > alpha {
				t.Fatalf("seed %d: entry %d not minimal", seed, i)
			}
		}
	}
}

func TestFairFailProbEdges(t *testing.T) {
	var o Oracle
	// An all-zero table rejects nothing.
	if got := o.FairFailProb(0.3, []int{0, 0, 0, 0, 0}); got != 0 {
		t.Fatalf("all-zero table fail prob = %v", got)
	}
	// A table demanding every draw succeed fails unless all k do.
	k := 6
	tbl := make([]int, k+1)
	for i := 1; i <= k; i++ {
		tbl[i] = i
	}
	p := 0.7
	want := 1 - math.Pow(p, float64(k))
	if got := o.FairFailProb(p, tbl); math.Abs(got-want) > 1e-12 {
		t.Fatalf("all-success table fail prob = %v, want %v", got, want)
	}
	// A table constraining only the last prefix fails exactly when the
	// final count is short: 1 - F(m-1; k, p) reversed — fail = F(m-1).
	tbl = []int{0, 0, 0, 0, 2}
	want = o.BinomialCDF(1, 4, 0.5)
	if got := o.FairFailProb(0.5, tbl); math.Abs(got-want) > 1e-12 {
		t.Fatalf("final-only table fail prob = %v, want %v", got, want)
	}
}

func TestCheckPrefixIntervals(t *testing.T) {
	// A perfectly alternating page over a 50/50 pool is feasible.
	if err := CheckPrefixIntervals([]int{0, 1, 0, 1, 0, 1}, []int{3, 3}); err != nil {
		t.Fatalf("alternating page rejected: %v", err)
	}
	// Front-loading one group of a 50/50 pool violates the other's floor
	// (and the first group's ceiling) by prefix 2.
	if err := CheckPrefixIntervals([]int{0, 0, 1, 1}, []int{2, 2}); err == nil {
		t.Fatal("front-loaded page accepted")
	}
	// A single-group pool accepts any page of that group.
	if err := CheckPrefixIntervals([]int{0, 0, 0}, []int{3}); err != nil {
		t.Fatalf("single-group page rejected: %v", err)
	}
	// Out-of-range group codes are reported, not panicked on.
	if err := CheckPrefixIntervals([]int{2}, []int{1, 1}); err == nil {
		t.Fatal("out-of-range group accepted")
	}
	if err := CheckPrefixIntervals(nil, []int{}); err == nil {
		t.Fatal("empty pool accepted")
	}
	// Thirds: floor/ceil of i/3 tolerate one group running ahead by at
	// most one — 0,1,2,0,1,2 is fine, 0,1,0,0 overshoots group 0.
	if err := CheckPrefixIntervals([]int{0, 1, 2, 0, 1, 2}, []int{2, 2, 2}); err != nil {
		t.Fatalf("round-robin thirds rejected: %v", err)
	}
	if err := CheckPrefixIntervals([]int{0, 1, 0, 0}, []int{2, 2, 2}); err == nil {
		t.Fatal("group 0 overshoot accepted")
	}
}

func TestCheckPrefixMinimums(t *testing.T) {
	// Table demanding one group-1 member by prefix 2.
	tables := [][]int{nil, {0, 0, 1, 1}}
	if err := CheckPrefixMinimums([]int{0, 1, 0}, tables); err != nil {
		t.Fatalf("satisfying page rejected: %v", err)
	}
	if err := CheckPrefixMinimums([]int{0, 0, 1}, tables); err == nil {
		t.Fatal("late group-1 accepted")
	}
	if err := CheckPrefixMinimums([]int{3}, tables); err == nil {
		t.Fatal("out-of-range group accepted")
	}
	// A page longer than the table is a caller error, reported.
	if err := CheckPrefixMinimums([]int{0, 1, 0, 1}, tables); err == nil {
		t.Fatal("page longer than table accepted")
	}
}

func TestBestNDCGOrderIsSortedOrder(t *testing.T) {
	var o Oracle
	for seed := uint64(1); seed <= 40; seed++ {
		g := NewGen(seed)
		rel := g.Scores(g.R.IntRange(1, 7))
		best := o.BestNDCGOrder(rel)
		// Independent claim: descending sort maximizes DCG (rearrangement
		// inequality against the decreasing discount).
		sorted := append([]float64(nil), rel...)
		for i := range sorted { // insertion sort, descending
			for j := i; j > 0 && sorted[j] > sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		dcg := 0.0
		for pos, r := range sorted {
			dcg += r / math.Log2(float64(pos)+2)
		}
		if math.Abs(best-dcg) > 1e-12 {
			t.Fatalf("seed %d: exhaustive best %v != sorted DCG %v", seed, best, dcg)
		}
	}
}
