package histogram

import (
	"math"
	"testing"

	"fairrank/internal/rng"
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
// counted splits depend on, which sum per-value bin counts part by part.
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

// floorBinIndex is BinIndex's former formula — the width divided out again
// per value, then math.Floor — kept as the oracle BinIndex must equal.
func floorBinIndex(h *Histogram, v float64) int {
	if math.IsNaN(v) {
		return 0
	}
	f := math.Floor((v - h.min) / ((h.max - h.min) / float64(len(h.counts))))
	if f < 0 {
		return 0
	}
	if f >= float64(len(h.counts)) {
		return len(h.counts) - 1
	}
	return int(f)
}

// binIndexProbes lists the values where a bin-index formula can go wrong:
// NaN, ±Inf, ±0, negatives, subnormals, values above Max, and every bin
// edge Min+k·width with its two float neighbours.
func binIndexProbes(h *Histogram) []float64 {
	vs := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -1, -1e-300,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, h.min, h.max,
		math.Nextafter(h.max, math.Inf(1)), 2 * h.max, h.max + 1, math.MaxFloat64, -math.MaxFloat64}
	for k := 0; k <= len(h.counts); k++ {
		for _, edge := range []float64{float64(k) * h.width, h.min + float64(k)*h.width} {
			vs = append(vs, edge, math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1)))
		}
	}
	return vs
}

// BinIndex divides once by the stored width and truncates instead of
// flooring; for every input it must equal the former two-division floor.
// The floor formula's quotient is NaN for a non-NaN value only when the
// width is infinite or zero, where it returned int(NaN), no bin at all;
// New refuses such ranges.
func TestBinIndexMatchesFloorFormula(t *testing.T) {
	for _, rg := range [][2]float64{{math.Inf(-1), 1}, {0, math.Inf(1)}, {-math.MaxFloat64, math.MaxFloat64}, {0, math.SmallestNonzeroFloat64}} {
		if _, err := New(3, rg[0], rg[1]); err != ErrBadRange {
			t.Errorf("New(3, %v, %v) = %v, want ErrBadRange", rg[0], rg[1], err)
		}
	}
	r := rng.New(11)
	for _, rg := range [][2]float64{{0, 1}, {25, 100}, {-3, 7.5}, {0, 0x1p-1060}, {-8e307, 8e307}} {
		for _, bins := range []int{1, 2, 3, 7, 10, 64, 1000, 10000} {
			h := MustNew(bins, rg[0], rg[1])
			vs := binIndexProbes(h)
			span := rg[1] - rg[0]
			for i := 0; i < 2000; i++ {
				vs = append(vs, r.FloatRange(rg[0]-span/4, rg[1]+span/4), math.Float64frombits(r.Uint64()))
			}
			for _, v := range vs {
				if got, want := h.BinIndex(v), floorBinIndex(h, v); got != want {
					t.Fatalf("[%v, %v] in %d bins: BinIndex(%v) = %d, floor formula %d", rg[0], rg[1], bins, v, got, want)
				}
			}
		}
	}
}

// FuzzBinIndex holds BinIndex to the former floor formula over arbitrary
// ranges, bin counts and values; its seeds are the probes of
// TestBinIndexMatchesFloorFormula.
func FuzzBinIndex(f *testing.F) {
	for _, v := range binIndexProbes(MustNew(10, 0, 1)) {
		f.Add(uint16(9), 0.0, 1.0, v)
	}
	for _, v := range binIndexProbes(MustNew(3, 25, 100)) {
		f.Add(uint16(2), 25.0, 100.0, v)
	}
	f.Add(uint16(9999), 0.0, 1.0, 0.5)
	f.Add(uint16(0), -8e307, 8e307, math.MaxFloat64)
	f.Add(uint16(54), math.Inf(-1), math.MaxFloat64, 0.5)
	f.Add(uint16(2), 0.0, math.SmallestNonzeroFloat64, 0.0)
	f.Fuzz(func(t *testing.T, b uint16, min, max, v float64) {
		h, err := New(int(b)%10000+1, min, max)
		if err != nil {
			return
		}
		if got, want := h.BinIndex(v), floorBinIndex(h, v); got != want {
			t.Fatalf("[%v, %v] in %d bins: BinIndex(%v) = %d, floor formula %d", min, max, h.Bins(), v, got, want)
		}
	})
}
