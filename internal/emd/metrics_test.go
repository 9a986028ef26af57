package emd

import (
	"math"
	"testing"
	"testing/quick"

	"fairrank/internal/histogram"
	"fairrank/internal/rng"
)

func TestMetricStringRoundTrip(t *testing.T) {
	for _, m := range []Metric{MetricEMD, MetricL1, MetricTV, MetricChiSquare, MetricJS, MetricKS, MetricHellinger} {
		got, err := ParseMetric(m.String())
		if err != nil || got != m {
			t.Errorf("round trip %v: got %v, err %v", m, got, err)
		}
	}
	if _, err := ParseMetric("nope"); err == nil {
		t.Error("unknown metric accepted")
	}
	if s := Metric(99).String(); s != "metric(99)" {
		t.Errorf("unknown String = %q", s)
	}
}

func TestCompareKnownValues(t *testing.T) {
	// p = all mass bin 0, q = all mass bin 1 (of 2 bins, width 0.5).
	p := []float64{1, 0}
	q := []float64{0, 1}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"emd", PMFDistance(p, q, 0.5), 0.5}, // one-bin shift * width 0.5
		{"l1", L1(p, q), 2},
		{"chi2", ChiSquare(p, q), 2},
		{"js", JensenShannon(p, q), 1},
		{"ks", KolmogorovSmirnov(p, q), 1},
		{"hellinger", Hellinger(p, q), 1},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

// distances lists the binned distances, EMD over bins of width 0.1.
var distances = []struct {
	name string
	fn   func(p, q []float64) float64
}{
	{"emd", func(p, q []float64) float64 { return PMFDistance(p, q, 0.1) }},
	{"l1", L1},
	{"chi2", ChiSquare},
	{"js", JensenShannon},
	{"ks", KolmogorovSmirnov},
	{"hellinger", Hellinger},
}

func TestCompareIdenticalZero(t *testing.T) {
	p := hist(10, 0.1, 0.4, 0.8).PMF()
	for _, d := range distances {
		if got := d.fn(p, p); got != 0 {
			t.Errorf("%s(p,p) = %v, want 0", d.name, got)
		}
	}
}

// All metrics must be symmetric and non-negative on random PMF pairs.
func TestMetricsSymmetryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := histogram.MustNew(10, 0, 1)
		b := histogram.MustNew(10, 0, 1)
		for i := 0; i < 50; i++ {
			a.Add(r.Float64())
			b.Add(r.Float64())
		}
		p, q := a.PMF(), b.PMF()
		for _, d := range distances {
			ab, ba := d.fn(p, q), d.fn(q, p)
			if ab < 0 || math.Abs(ab-ba) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestJensenShannonBounded(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		p := make([]float64, 10)
		q := make([]float64, 10)
		sp, sq := 0.0, 0.0
		for i := range p {
			p[i], q[i] = r.Float64(), r.Float64()
			sp += p[i]
			sq += q[i]
		}
		for i := range p {
			p[i] /= sp
			q[i] /= sq
		}
		js := JensenShannon(p, q)
		return js >= 0 && js <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChiSquareSkipsEmptyJointBins(t *testing.T) {
	p := []float64{0.5, 0.5, 0}
	q := []float64{0.5, 0.5, 0}
	if d := ChiSquare(p, q); d != 0 {
		t.Fatalf("chi2 with empty joint bin = %v", d)
	}
}

func TestKSMatchesManual(t *testing.T) {
	p := []float64{0.6, 0.4, 0}
	q := []float64{0.2, 0.2, 0.6}
	// CDFs: p = .6 1 1; q = .2 .4 1 → gaps .4, .6, 0.
	if got := KolmogorovSmirnov(p, q); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("KS = %v, want 0.6", got)
	}
}
