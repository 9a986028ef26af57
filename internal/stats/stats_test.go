package stats

import (
	"math"
	"testing"
)

func TestMean(t *testing.T) {
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) err = %v", err)
	}
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil || m != 2.5 {
		t.Errorf("Mean = %v, %v", m, err)
	}
}

func TestVarianceStdDev(t *testing.T) {
	v, err := Variance([]float64{2, 2, 2})
	if err != nil || v != 0 {
		t.Errorf("Variance const = %v, %v", v, err)
	}
	v, _ = Variance([]float64{1, 3})
	if v != 1 {
		t.Errorf("Variance{1,3} = %v, want 1", v)
	}
	sd, _ := StdDev([]float64{1, 3})
	if sd != 1 {
		t.Errorf("StdDev{1,3} = %v, want 1", sd)
	}
	if _, err := StdDev(nil); err != ErrEmpty {
		t.Errorf("StdDev(nil) err = %v", err)
	}
}

func TestMinMax(t *testing.T) {
	min, max, err := MinMax([]float64{3, -1, 7, 0})
	if err != nil || min != -1 || max != 7 {
		t.Errorf("MinMax = %v, %v, %v", min, max, err)
	}
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Errorf("MinMax(nil) err = %v", err)
	}
}

func TestGini(t *testing.T) {
	if _, err := Gini(nil); err != ErrEmpty {
		t.Errorf("empty err = %v", err)
	}
	if _, err := Gini([]float64{-1, 2}); err == nil {
		t.Error("negative values accepted")
	}
	g, err := Gini([]float64{5, 5, 5, 5})
	if err != nil || math.Abs(g) > 1e-12 {
		t.Errorf("equal Gini = %v, %v", g, err)
	}
	g, _ = Gini([]float64{0, 0, 0, 0})
	if g != 0 {
		t.Errorf("all-zero Gini = %v", g)
	}
	// One holder of everything among n: Gini = (n-1)/n.
	g, _ = Gini([]float64{0, 0, 0, 100})
	if math.Abs(g-0.75) > 1e-12 {
		t.Errorf("winner-take-all Gini = %v, want 0.75", g)
	}
	// Known worked value: {1,2,3,4} → Gini = 0.25.
	g, _ = Gini([]float64{1, 2, 3, 4})
	if math.Abs(g-0.25) > 1e-12 {
		t.Errorf("Gini{1..4} = %v, want 0.25", g)
	}
	// Order invariance.
	a, _ := Gini([]float64{4, 1, 3, 2})
	if math.Abs(a-0.25) > 1e-12 {
		t.Errorf("shuffled Gini = %v", a)
	}
}

func TestBenjaminiHochberg(t *testing.T) {
	// Classic worked example: with alpha=0.05 and these p-values, the
	// first three are rejected (p3=0.03 <= 3/5*0.05 = 0.03).
	ps := []float64{0.01, 0.02, 0.03, 0.5, 0.9}
	rej, err := BenjaminiHochberg(ps, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, true, false, false}
	for i := range want {
		if rej[i] != want[i] {
			t.Fatalf("rejections = %v, want %v", rej, want)
		}
	}
	// Order independence: shuffled input gives the same decisions per
	// hypothesis.
	shuffled := []float64{0.9, 0.03, 0.5, 0.01, 0.02}
	rej2, err := BenjaminiHochberg(shuffled, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want2 := []bool{false, true, false, true, true}
	for i := range want2 {
		if rej2[i] != want2[i] {
			t.Fatalf("shuffled rejections = %v, want %v", rej2, want2)
		}
	}
}

func TestBenjaminiHochbergStepUp(t *testing.T) {
	// The step-up property: a large p-value can be rejected if a later
	// rank satisfies the threshold.
	ps := []float64{0.04, 0.045, 0.049}
	rej, err := BenjaminiHochberg(ps, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// k=3: 0.049 <= 3/3*0.05, so ALL are rejected despite 0.04 > 1/3*0.05.
	for i, r := range rej {
		if !r {
			t.Fatalf("hypothesis %d not rejected: %v", i, rej)
		}
	}
}

func TestBenjaminiHochbergNoneRejected(t *testing.T) {
	rej, err := BenjaminiHochberg([]float64{0.5, 0.8, 0.9}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rej {
		if r {
			t.Fatalf("rejected under null: %v", rej)
		}
	}
}

func TestBenjaminiHochbergValidation(t *testing.T) {
	if _, err := BenjaminiHochberg(nil, 0.05); err != ErrEmpty {
		t.Errorf("empty err = %v", err)
	}
	if _, err := BenjaminiHochberg([]float64{0.5}, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
	if _, err := BenjaminiHochberg([]float64{0.5}, 1); err == nil {
		t.Error("alpha=1 accepted")
	}
	if _, err := BenjaminiHochberg([]float64{1.5}, 0.05); err == nil {
		t.Error("p>1 accepted")
	}
	if _, err := BenjaminiHochberg([]float64{math.NaN()}, 0.05); err == nil {
		t.Error("NaN p accepted")
	}
}
