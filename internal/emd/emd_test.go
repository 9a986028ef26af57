package emd

import (
	"math"
	"testing"
	"testing/quick"

	"fairrank/internal/histogram"
	"fairrank/internal/rng"
)

func hist(bins int, vals ...float64) *histogram.Histogram {
	h := histogram.MustNew(bins, 0, 1)
	h.AddAll(vals)
	return h
}

func TestDistanceIdentical(t *testing.T) {
	a := hist(10, 0.1, 0.5, 0.9)
	d, err := Distance(a, a.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("EMD(a,a) = %v, want 0", d)
	}
}

func TestDistanceKnownShift(t *testing.T) {
	// All mass in bin 0 vs all mass in bin 9: EMD = 9 bins * 0.1 = 0.9.
	a := hist(10, 0.05)
	b := hist(10, 0.95)
	d, err := Distance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.9) > 1e-12 {
		t.Fatalf("EMD = %v, want 0.9", d)
	}
}

func TestDistanceGenderBiasCalibration(t *testing.T) {
	// The paper's f6 shape: one group uniform in (0.8,1], the other in
	// [0,0.2). EMD should be ~0.8 — exactly what Table 3 reports for
	// balanced on f6.
	r := rng.New(1)
	male := histogram.MustNew(10, 0, 1)
	female := histogram.MustNew(10, 0, 1)
	for i := 0; i < 5000; i++ {
		male.Add(r.FloatRange(0.8, 1.0))
		female.Add(r.FloatRange(0, 0.2))
	}
	d, err := Distance(male, female)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.8) > 0.01 {
		t.Fatalf("gender-bias EMD = %v, want ~0.8", d)
	}
}

func TestDistanceGroundIndex(t *testing.T) {
	// Extremes under index ground distance: exactly 1.
	a := hist(10, 0.0)
	b := hist(10, 0.9999)
	d, err := DistanceGround(a, b, GroundIndex)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-1) > 1e-12 {
		t.Fatalf("index-ground EMD = %v, want 1", d)
	}
}

func TestDistanceIncompatible(t *testing.T) {
	a := hist(10, 0.5)
	b := histogram.MustNew(5, 0, 1)
	if _, err := Distance(a, b); err != ErrIncompatible {
		t.Fatalf("err = %v, want ErrIncompatible", err)
	}
	if _, err := Distance(nil, a); err != ErrIncompatible {
		t.Fatalf("nil err = %v, want ErrIncompatible", err)
	}
}

func TestDistanceEmptyHistogramsUniform(t *testing.T) {
	// Two empty histograms both present as uniform: distance 0.
	a := histogram.MustNew(10, 0, 1)
	b := histogram.MustNew(10, 0, 1)
	d, err := Distance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("EMD(empty,empty) = %v", d)
	}
}

// Metric axioms for the closed-form 1-D EMD on random PMFs.
func TestEMDMetricAxiomsProperty(t *testing.T) {
	gen := func(r *rng.RNG, n int) []float64 {
		p := make([]float64, n)
		s := 0.0
		for i := range p {
			p[i] = r.Float64()
			s += p[i]
		}
		for i := range p {
			p[i] /= s
		}
		return p
	}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(30)
		p, q, z := gen(r, n), gen(r, n), gen(r, n)
		const unit = 0.1
		dpq := PMFDistance(p, q, unit)
		dqp := PMFDistance(q, p, unit)
		dpp := PMFDistance(p, p, unit)
		dpz := PMFDistance(p, z, unit)
		dzq := PMFDistance(z, q, unit)
		switch {
		case dpq < 0:
			return false // non-negativity
		case math.Abs(dpq-dqp) > 1e-12:
			return false // symmetry
		case dpp > 1e-12:
			return false // identity
		case dpq > dpz+dzq+1e-9:
			return false // triangle inequality
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
