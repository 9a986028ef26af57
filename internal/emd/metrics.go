package emd

import (
	"fmt"
	"math"
)

// Metric identifies a histogram distance. The paper uses EMD and names the
// search for alternative metrics as future work; fairrank ships the common
// candidates so that unfairness can be quantified under any of them.
type Metric int

const (
	// MetricEMD is the Earth Mover's Distance (the paper's choice).
	MetricEMD Metric = iota
	// MetricL1 is the total absolute difference between PMFs (twice the
	// total variation distance).
	MetricL1
	// MetricTV is the total variation distance, L1/2.
	MetricTV
	// MetricChiSquare is the symmetric chi-square distance.
	MetricChiSquare
	// MetricJS is the Jensen-Shannon divergence (base 2, in [0,1]).
	MetricJS
	// MetricKS is the Kolmogorov-Smirnov statistic (max CDF gap).
	MetricKS
	// MetricHellinger is the Hellinger distance, in [0,1].
	MetricHellinger
)

// String returns the metric's canonical name.
func (m Metric) String() string {
	switch m {
	case MetricEMD:
		return "emd"
	case MetricL1:
		return "l1"
	case MetricTV:
		return "tv"
	case MetricChiSquare:
		return "chi2"
	case MetricJS:
		return "js"
	case MetricKS:
		return "ks"
	case MetricHellinger:
		return "hellinger"
	default:
		return fmt.Sprintf("metric(%d)", int(m))
	}
}

// ParseMetric resolves a metric name as printed by String.
func ParseMetric(name string) (Metric, error) {
	switch name {
	case "emd":
		return MetricEMD, nil
	case "l1":
		return MetricL1, nil
	case "tv":
		return MetricTV, nil
	case "chi2":
		return MetricChiSquare, nil
	case "js":
		return MetricJS, nil
	case "ks":
		return MetricKS, nil
	case "hellinger":
		return MetricHellinger, nil
	default:
		return 0, fmt.Errorf("emd: unknown metric %q", name)
	}
}

// L1 returns the sum of absolute PMF differences.
func L1(p, q []float64) float64 {
	s := 0.0
	for i := range p {
		s += math.Abs(p[i] - q[i])
	}
	return s
}

// ChiSquare returns the symmetric chi-square distance
// Σ (p_i - q_i)² / (p_i + q_i), with empty joint bins contributing 0.
func ChiSquare(p, q []float64) float64 {
	s := 0.0
	for i := range p {
		d := p[i] + q[i]
		if d == 0 {
			continue
		}
		diff := p[i] - q[i]
		s += diff * diff / d
	}
	return s
}

// JensenShannon returns the Jensen-Shannon divergence in bits; it is
// symmetric, bounded by 1, and 0 iff p == q. Its products are rounded
// before they are summed, but it is built on math.Log2, whose last bit
// may differ between architectures, and so may the result's.
func JensenShannon(p, q []float64) float64 {
	kl := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			if a[i] == 0 {
				continue
			}
			s += float64(a[i] * math.Log2(a[i]/b[i])) // rounded: no multiply-add fuses
		}
		return s
	}
	m := make([]float64, len(p))
	for i := range p {
		m[i] = (p[i] + q[i]) / 2
	}
	return (kl(p, m) + kl(q, m)) / 2
}

// KolmogorovSmirnov returns the maximum absolute difference between the two
// distributions' CDFs.
func KolmogorovSmirnov(p, q []float64) float64 {
	cum, best := 0.0, 0.0
	for i := range p {
		cum += p[i] - q[i]
		if a := math.Abs(cum); a > best {
			best = a
		}
	}
	return best
}

// Hellinger returns the Hellinger distance sqrt(1 - Σ sqrt(p_i q_i)),
// clamped to [0,1] against floating-point drift.
func Hellinger(p, q []float64) float64 {
	bc := 0.0
	for i := range p {
		bc += math.Sqrt(p[i] * q[i])
	}
	v := 1 - bc
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}
