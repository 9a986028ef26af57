package emd

import (
	"math"
	"testing"

	"fairrank/internal/testkit"
)

// Fuzz targets differential-test the EMD fast paths against the testkit
// oracles on fuzzer-shaped inputs. Seed corpora live under
// testdata/fuzz/<target>/ and are replayed by plain `go test` as well.

// normalizePMF turns raw non-negative floats into a PMF, or nil when the
// row carries no mass.
func normalizePMF(vals []float64) []float64 {
	total := 0.0
	for _, v := range vals {
		total += v
	}
	if total <= 0 {
		return nil
	}
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = v / total
	}
	return out
}

// FuzzPMFDistance checks the closed-form EMD against the explicit-flow
// oracle. Layout: data[0] selects the bin count, data[1] the ground unit,
// the rest supplies two PMFs.
func FuzzPMFDistance(f *testing.F) {
	f.Add([]byte{10, 50, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{4, 100, 200, 0, 0, 0, 0, 0, 0, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		bins := int(data[0])%24 + 1
		unit := float64(data[1])/100 + 0.01
		vals := testkit.FiniteFloats(data[2:])
		if len(vals) < 2*bins {
			return
		}
		p := normalizePMF(vals[:bins])
		q := normalizePMF(vals[bins : 2*bins])
		if p == nil || q == nil {
			return
		}
		var o testkit.Oracle
		d := PMFDistance(p, q, unit)
		if want := o.EMDFlow(p, q, unit); math.Abs(d-want) > testkit.Tol {
			t.Fatalf("PMFDistance = %v, flow oracle = %v (p=%v q=%v unit=%v)", d, want, p, q, unit)
		}
		if back := PMFDistance(q, p, unit); math.Abs(back-d) > testkit.Tol {
			t.Fatalf("asymmetric: %v vs %v", d, back)
		}
		if d < 0 {
			t.Fatalf("negative distance %v", d)
		}
	})
}

// FuzzExactEMD checks Exact1D against the oracle's monotone-coupling flow.
// Layout: data[0] splits the remaining bytes into the two samples; values
// decode through SpecialFloats. The flow oracle is defined on finite
// samples only: a pair holding NaN or ±Inf must still return, with a sum
// that is not negative.
func FuzzExactEMD(f *testing.F) {
	f.Add([]byte{3, 10, 20, 30, 100, 150, 200})
	f.Add([]byte{1, 255, 100}) // NaN in the first sample
	f.Add([]byte{2, 254, 253, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cut := int(data[0])%(len(data)-1) + 1
		vals := testkit.SpecialFloats(data[1:])
		xs, ys := vals[:cut], vals[cut:]
		if len(xs) == 0 || len(ys) == 0 {
			return
		}
		ex := Exact1D(xs, ys)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				if ex < 0 {
					t.Fatalf("Exact1D = %v (xs=%v ys=%v)", ex, xs, ys)
				}
				return
			}
		}
		var o testkit.Oracle
		if want := o.WpFlow(xs, ys, 1); math.Abs(ex-want) > testkit.Tol {
			t.Fatalf("Exact1D = %v, flow oracle = %v (xs=%v ys=%v)", ex, want, xs, ys)
		}
	})
}
