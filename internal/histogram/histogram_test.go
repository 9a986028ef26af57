package histogram

import (
	"math"
	"testing"
	"testing/quick"

	"fairrank/internal/rng"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0, 1); err != ErrBadBins {
		t.Errorf("New(0,0,1) err = %v, want ErrBadBins", err)
	}
	if _, err := New(-3, 0, 1); err != ErrBadBins {
		t.Errorf("New(-3,0,1) err = %v, want ErrBadBins", err)
	}
	if _, err := New(10, 1, 1); err != ErrBadRange {
		t.Errorf("New(10,1,1) err = %v, want ErrBadRange", err)
	}
	if _, err := New(10, 2, 1); err != ErrBadRange {
		t.Errorf("New(10,2,1) err = %v, want ErrBadRange", err)
	}
	if h, err := New(10, 0, 1); err != nil || h == nil {
		t.Errorf("New(10,0,1) = %v, %v; want valid", h, err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0,0,1) did not panic")
		}
	}()
	MustNew(0, 0, 1)
}

func TestBinIndex(t *testing.T) {
	h := MustNew(10, 0, 1)
	cases := []struct {
		v    float64
		want int
	}{
		{-1, 0}, {0, 0}, {0.05, 0}, {0.0999, 0},
		{0.1, 1}, {0.55, 5}, {0.95, 9},
		{1.0, 9}, {2.0, 9}, // clamped to last bin
		{math.NaN(), 0},
	}
	for _, c := range cases {
		if got := h.BinIndex(c.v); got != c.want {
			t.Errorf("BinIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBinCenter(t *testing.T) {
	h := MustNew(10, 0, 1)
	if got := h.BinCenter(0); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("BinCenter(0) = %v, want 0.05", got)
	}
	if got := h.BinCenter(9); math.Abs(got-0.95) > 1e-12 {
		t.Errorf("BinCenter(9) = %v, want 0.95", got)
	}
}

func TestAddAndTotal(t *testing.T) {
	h := MustNew(4, 0, 1)
	h.AddAll([]float64{0.1, 0.3, 0.6, 0.9, 0.9})
	if h.Total() != 5 {
		t.Fatalf("Total = %v, want 5", h.Total())
	}
	want := []float64{1, 1, 1, 2}
	for i, w := range want {
		if h.Count(i) != w {
			t.Errorf("bin %d = %v, want %v", i, h.Count(i), w)
		}
	}
}

func TestAddWeightedPanicsOnNegative(t *testing.T) {
	h := MustNew(4, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative weight did not panic")
		}
	}()
	h.AddWeighted(0.5, -1)
}

func TestRemove(t *testing.T) {
	h := MustNew(4, 0, 1)
	h.Add(0.1)
	h.Add(0.9)
	if err := h.Remove(0.1); err != nil {
		t.Fatal(err)
	}
	if h.Total() != 1 || h.Count(0) != 0 {
		t.Fatalf("after remove: total=%v bin0=%v", h.Total(), h.Count(0))
	}
	if err := h.Remove(0.1); err == nil {
		t.Fatal("removing from empty bin accepted")
	}
	// Add/remove cycles restore the exact state.
	before := h.Counts()
	h.Add(0.5)
	if err := h.Remove(0.5); err != nil {
		t.Fatal(err)
	}
	after := h.Counts()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("add/remove not idempotent at bin %d", i)
		}
	}
}

func TestPMFSumsToOne(t *testing.T) {
	h := MustNew(10, 0, 1)
	r := rng.New(1)
	for i := 0; i < 1000; i++ {
		h.Add(r.Float64())
	}
	sum := 0.0
	for _, p := range h.PMF() {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PMF sums to %v", sum)
	}
}

func TestEmptyPMFUniform(t *testing.T) {
	h := MustNew(5, 0, 1)
	for _, p := range h.PMF() {
		if math.Abs(p-0.2) > 1e-12 {
			t.Fatalf("empty PMF bin = %v, want 0.2", p)
		}
	}
}

func TestCDFMonotoneEndsAtOne(t *testing.T) {
	h := MustNew(10, 0, 1)
	r := rng.New(2)
	for i := 0; i < 500; i++ {
		h.Add(r.Float64())
	}
	cdf := h.CDF()
	prev := 0.0
	for i, c := range cdf {
		if c < prev-1e-12 {
			t.Fatalf("CDF decreases at bin %d", i)
		}
		prev = c
	}
	if math.Abs(cdf[len(cdf)-1]-1) > 1e-9 {
		t.Fatalf("CDF ends at %v", cdf[len(cdf)-1])
	}
}

func TestMeanVariance(t *testing.T) {
	h := MustNew(10, 0, 1)
	// All mass in bin 5 (center 0.55).
	for i := 0; i < 10; i++ {
		h.Add(0.55)
	}
	if got := h.Mean(); math.Abs(got-0.55) > 1e-12 {
		t.Errorf("Mean = %v, want 0.55", got)
	}
	if got := h.Variance(); got != 0 {
		t.Errorf("Variance = %v, want 0", got)
	}
	empty := MustNew(10, 0, 1)
	if !math.IsNaN(empty.Mean()) || !math.IsNaN(empty.Variance()) {
		t.Error("empty histogram mean/variance should be NaN")
	}
}

func TestCloneIndependent(t *testing.T) {
	h := MustNew(4, 0, 1)
	h.Add(0.5)
	c := h.Clone()
	c.Add(0.9)
	if h.Total() != 1 || c.Total() != 2 {
		t.Fatalf("clone not independent: h=%v c=%v", h.Total(), c.Total())
	}
}

func TestReset(t *testing.T) {
	h := MustNew(4, 0, 1)
	h.AddAll([]float64{0.1, 0.9})
	h.Reset()
	if !h.Empty() {
		t.Fatal("Reset did not empty histogram")
	}
}

func TestMergeCompatibility(t *testing.T) {
	a := MustNew(4, 0, 1)
	b := MustNew(4, 0, 1)
	c := MustNew(5, 0, 1)
	d := MustNew(4, 0, 2)
	a.Add(0.1)
	b.Add(0.9)
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge compatible: %v", err)
	}
	if a.Total() != 2 {
		t.Fatalf("merged total = %v", a.Total())
	}
	if err := a.Merge(c); err != ErrIncompatible {
		t.Errorf("merge different bins err = %v", err)
	}
	if err := a.Merge(d); err != ErrIncompatible {
		t.Errorf("merge different range err = %v", err)
	}
	if err := a.Merge(nil); err != ErrIncompatible {
		t.Errorf("merge nil err = %v", err)
	}
}

// Property: merging two histograms conserves mass and equals adding the
// union of samples.
func TestMergeAdditivityProperty(t *testing.T) {
	f := func(seed uint64, na, nb uint8) bool {
		r := rng.New(seed)
		a := MustNew(8, 0, 1)
		b := MustNew(8, 0, 1)
		u := MustNew(8, 0, 1)
		for i := 0; i < int(na); i++ {
			v := r.Float64()
			a.Add(v)
			u.Add(v)
		}
		for i := 0; i < int(nb); i++ {
			v := r.Float64()
			b.Add(v)
			u.Add(v)
		}
		if err := a.Merge(b); err != nil {
			return false
		}
		for i := 0; i < 8; i++ {
			if a.Count(i) != u.Count(i) {
				return false
			}
		}
		return a.Total() == u.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: total mass always equals the number of Add calls.
func TestMassConservationProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		r := rng.New(seed)
		h := MustNew(10, 0, 1)
		for i := 0; i < int(n); i++ {
			h.Add(r.FloatRange(-0.5, 1.5)) // includes out-of-range values
		}
		return h.Total() == float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	h := MustNew(2, 0, 1)
	h.Add(0.2)
	if got := h.String(); got != "hist[0,1] n=1 {1 0}" {
		t.Errorf("String = %q", got)
	}
}

func TestBinIndices(t *testing.T) {
	h := MustNew(10, 0, 1)
	vs := []float64{-0.5, 0, 0.05, 0.55, 0.999, 1, 1.5, math.NaN()}
	got := make([]int32, len(vs))
	h.BinIndices(vs, got)
	for i, v := range vs {
		if int(got[i]) != h.BinIndex(v) {
			t.Errorf("BinIndices[%d] = %d, BinIndex(%v) = %d", i, got[i], v, h.BinIndex(v))
		}
	}
}

func TestNormalizeCountsMatchesPMF(t *testing.T) {
	h := MustNew(5, 0, 1)
	vs := []float64{0.1, 0.1, 0.3, 0.7, 0.95, 0.95, 0.95}
	h.AddAll(vs)
	got := NormalizeCounts(h.Counts())
	want := h.PMF()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bin %d: NormalizeCounts = %v, PMF = %v", i, got[i], want[i])
		}
	}
	// Empty counts normalize to the same uniform fallback as an empty PMF.
	empty := NormalizeCounts(make([]float64, 5))
	uniform := MustNew(5, 0, 1).PMF()
	for i := range uniform {
		if empty[i] != uniform[i] {
			t.Errorf("empty bin %d: %v != %v", i, empty[i], uniform[i])
		}
	}
}
