package emd_test

import (
	"fmt"

	"fairrank/internal/emd"
	"fairrank/internal/histogram"
)

// Two score distributions concentrated 0.8 apart have EMD 0.8 — the value
// Table 3 of the paper reports for the gender-discriminating function f6.
func ExampleDistance() {
	male := histogram.MustNew(10, 0, 1)
	female := histogram.MustNew(10, 0, 1)
	male.AddAll([]float64{0.85, 0.95, 0.9})
	female.AddAll([]float64{0.05, 0.15, 0.1})
	d, _ := emd.Distance(male, female)
	fmt.Printf("%.1f\n", d)
	// Output: 0.8
}

func ExamplePMFDistance() {
	p := []float64{1, 0, 0} // all mass in bin 0
	q := []float64{0, 0, 1} // all mass in bin 2
	fmt.Println(emd.PMFDistance(p, q, 0.5))
	// Output: 1
}

func ExampleExact1D() {
	// A constant shift of 0.25 moves the exact EMD by exactly 0.25.
	xs := []float64{0.1, 0.2, 0.3}
	ys := []float64{0.35, 0.45, 0.55}
	fmt.Printf("%.2f\n", emd.Exact1D(xs, ys))
	// Output: 0.25
}
