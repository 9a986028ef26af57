package emd_test

import (
	"fmt"

	"fairrank/internal/emd"
)

func ExamplePMFDistance() {
	p := []float64{1, 0, 0} // all mass in bin 0
	q := []float64{0, 0, 1} // all mass in bin 2
	fmt.Println(emd.PMFDistance(p, q, 0.5))
	// Output: 1
}

func ExampleExact1DSorted() {
	// A constant shift of 0.25 moves the exact EMD by exactly 0.25.
	xs := []float64{0.1, 0.2, 0.3}
	ys := []float64{0.35, 0.45, 0.55}
	fmt.Printf("%.2f\n", emd.Exact1DSorted(xs, ys))
	// Output: 0.25
}
