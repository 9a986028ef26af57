package emd

// Exact1DSorted computes the exact Earth Mover's Distance between the
// empirical distributions of two 1-D samples, each sorted ascending,
// without histogram binning: it is the L1 distance between the two
// empirical CDFs, computed in one sweep over the merged samples. Each
// sample is treated as a uniform distribution over its points. It neither
// copies nor modifies the samples.
//
// The paper quantifies unfairness on binned histograms; this is the
// bin-free limit, which measures what the binning approximation costs.
// The evaluator's Exact mode keeps each part's sample sorted.
//
// It returns on any input: each step of the sweep consumes the sample
// point it reads, so a NaN, which equals nothing, cannot stall it.
// Samples are meant to be finite; with a NaN or ±Inf the sum is no
// distance (most often NaN or +Inf), though never negative.
func Exact1DSorted(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	stepA := 1 / float64(len(a))
	stepB := 1 / float64(len(b))
	var (
		i, j   int
		cdfA   float64
		cdfB   float64
		prev   float64
		total  float64
		inited bool
	)
	for i < len(a) || j < len(b) {
		var x float64
		fromA := j >= len(b) || (i < len(a) && a[i] <= b[j])
		if fromA {
			x = a[i]
		} else {
			x = b[j]
		}
		if inited {
			// Rounded before the add, so no multiply-add fuses.
			total += float64(abs(cdfA-cdfB) * (x - prev))
		}
		if fromA {
			cdfA += stepA
			i++
		} else {
			cdfB += stepB
			j++
		}
		for i < len(a) && a[i] == x {
			cdfA += stepA
			i++
		}
		for j < len(b) && b[j] == x {
			cdfB += stepB
			j++
		}
		prev = x
		inited = true
	}
	return total
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
