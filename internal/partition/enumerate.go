package partition

import (
	"errors"
	"math"
)

// ErrBudgetExceeded is returned when an exhaustive solver's space holds
// more partitionings than its budget. This is the expected outcome at
// realistic sizes: the paper's own brute-force implementation "failed to
// terminate after running for two days with only 6 attributes".
var ErrBudgetExceeded = errors.New("partition: enumeration budget exceeded")

// CountTrees computes (without materializing) the number of hierarchical
// split partitionings for the given per-attribute cardinalities, assuming
// every split realizes all values. It grows explosively, which is the
// quantitative form of the paper's hardness argument. Returns +Inf when the
// count overflows float64 meaningfully (> 1e300).
func CountTrees(cardinalities []int) float64 {
	var count func(remaining []int) float64
	count = func(remaining []int) float64 {
		total := 1.0 // leaf
		for ai, card := range remaining {
			rest := make([]int, 0, len(remaining)-1)
			rest = append(rest, remaining[:ai]...)
			rest = append(rest, remaining[ai+1:]...)
			sub := count(rest)
			prod := 1.0
			for i := 0; i < card; i++ {
				prod *= sub
				if prod > 1e300 {
					return math.Inf(1)
				}
			}
			total += prod
			if total > 1e300 {
				return math.Inf(1)
			}
		}
		return total
	}
	return count(cardinalities)
}
