package repair_test

import (
	"fmt"
	"slices"

	"fairrank/internal/partition"
	"fairrank/internal/repair"
)

// Full repair equalizes two groups' score distributions while preserving
// the within-group ordering.
func ExampleScores() {
	// Group A scores high, group B scores low.
	scores := []float64{0.9, 0.8, 0.95, 0.1, 0.2, 0.05}
	pt := &partition.Partitioning{Parts: []*partition.Partition{
		{Indices: []int{0, 1, 2}},
		{Indices: []int{3, 4, 5}},
	}}
	repaired, _ := repair.Scores(scores, pt, 1)
	// Both groups now hold the same three scores.
	a, b := slices.Clone(repaired[:3]), slices.Clone(repaired[3:])
	slices.Sort(a)
	slices.Sort(b)
	fmt.Printf("A %.3f\nB %.3f\n", a, b)
	// Within group A, worker 2 (0.95) still outranks worker 0 (0.9).
	fmt.Println(repaired[2] > repaired[0])
	// Output:
	// A [0.092 0.500 0.908]
	// B [0.092 0.500 0.908]
	// true
}
