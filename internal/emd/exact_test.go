package emd

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"fairrank/internal/histogram"
	"fairrank/internal/rng"
)

func TestExact1DIdentical(t *testing.T) {
	xs := []float64{0.1, 0.5, 0.9}
	if d := Exact1DSorted(xs, xs); d != 0 {
		t.Fatalf("EMD(x,x) = %v", d)
	}
}

func TestExact1DPointMasses(t *testing.T) {
	// Single points: EMD is just the distance between them.
	if d := Exact1DSorted([]float64{0.2}, []float64{0.7}); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("EMD = %v, want 0.5", d)
	}
}

func TestExact1DMeanShift(t *testing.T) {
	// Shifting a sample by c moves the EMD by exactly c.
	xs := []float64{0.1, 0.2, 0.3, 0.4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x + 0.25
	}
	if d := Exact1DSorted(xs, ys); math.Abs(d-0.25) > 1e-12 {
		t.Fatalf("EMD = %v, want 0.25", d)
	}
}

func TestExact1DEmpty(t *testing.T) {
	if d := Exact1DSorted(nil, []float64{1}); d != 0 {
		t.Fatalf("empty EMD = %v", d)
	}
}

func TestExact1DUnequalSizes(t *testing.T) {
	// {0} vs {0,1}: CDFs are 1 vs 0.5 on [0,1) → EMD = 0.5.
	if d := Exact1DSorted([]float64{0}, []float64{0, 1}); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("EMD = %v, want 0.5", d)
	}
}

func TestExact1DDoesNotMutate(t *testing.T) {
	xs := []float64{0.1, 0.9}
	ys := []float64{0.5}
	Exact1DSorted(xs, ys)
	if xs[0] != 0.1 || xs[1] != 0.9 || ys[0] != 0.5 {
		t.Fatal("input mutated")
	}
}

// Property: symmetric, non-negative, triangle inequality.
func TestExact1DMetricProperty(t *testing.T) {
	gen := func(r *rng.RNG) []float64 {
		n := 1 + r.Intn(40)
		out := make([]float64, n)
		for i := range out {
			out[i] = r.Float64()
		}
		sort.Float64s(out)
		return out
	}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		x, y, z := gen(r), gen(r), gen(r)
		dxy := Exact1DSorted(x, y)
		dyx := Exact1DSorted(y, x)
		dxz := Exact1DSorted(x, z)
		dzy := Exact1DSorted(z, y)
		return dxy >= 0 && math.Abs(dxy-dyx) < 1e-12 && dxy <= dxz+dzy+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the binned EMD converges to the exact EMD as bins increase.
func TestBinnedConvergesToExact(t *testing.T) {
	r := rng.New(5)
	xs := make([]float64, 400)
	ys := make([]float64, 400)
	for i := range xs {
		xs[i] = r.Float64() * r.Float64() // skewed
		ys[i] = r.Float64()
	}
	sort.Float64s(xs)
	sort.Float64s(ys)
	exact := Exact1DSorted(xs, ys)
	prevGap := math.Inf(1)
	for _, bins := range []int{5, 20, 100, 1000} {
		ha := histogram.MustNew(bins, 0, 1)
		hb := histogram.MustNew(bins, 0, 1)
		ha.AddAll(xs)
		hb.AddAll(ys)
		gap := math.Abs(dist(ha, hb) - exact)
		if gap > prevGap+0.01 {
			t.Fatalf("binned EMD diverging at %d bins: gap %v (prev %v)", bins, gap, prevGap)
		}
		prevGap = gap
	}
	if prevGap > 0.005 {
		t.Fatalf("1000-bin EMD still %v from exact", prevGap)
	}
}

// TestExact1DNonFiniteReturns: a NaN once stalled the sweep for good,
// since the NaN it read equals nothing and so was never consumed. Each
// sample shape, sorted or not, must return within the deadline.
func TestExact1DNonFiniteReturns(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := [][2][]float64{
		{{nan, 0.2}, {0.5}},
		{{0.5}, {nan, 0.2}},
		{{nan}, {nan}},
		{{0.1, nan, 0.3}, {nan, 0.9, nan}},
		{{-inf, 0.2}, {inf}},
		{{inf}, {inf}},
	}
	for _, c := range cases {
		done := make(chan float64, 1)
		go func() { done <- Exact1DSorted(c[0], c[1]) }()
		select {
		case d := <-done:
			if d < 0 {
				t.Errorf("Exact1DSorted(%v, %v) = %v", c[0], c[1], d)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Exact1DSorted(%v, %v) has not returned after 5s", c[0], c[1])
		}
	}
}
