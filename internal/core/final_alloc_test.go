package core_test

import (
	"context"
	"runtime"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/simulate"
)

// TestAllAttributesKeepsNoTriangle: all-attributes averages its full split
// without building the split's distance triangle. On the paper's
// population the full split has ~1 770 parts, whose triangle alone would
// take 8·k(k−1)/2 bytes (~12.5 MB); the whole run must allocate less.
func TestAllAttributesKeepsNoTriangle(t *testing.T) {
	funcs, err := simulate.RandomFunctions()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := simulate.PaperWorkers(7300, 42)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEvaluator(ds, funcs[0], core.Config{Bins: 10, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := core.Run(context.Background(), core.Spec{Algorithm: "all-attributes", Evaluator: e})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	k := uint64(len(res.Partitioning.Parts))
	if k < 1500 {
		t.Fatalf("full split has %d parts; the check needs at least 1500", k)
	}
	triangle := 8 * k * (k - 1) / 2
	if got := after.TotalAlloc - before.TotalAlloc; got >= triangle {
		t.Fatalf("all-attributes allocated %d bytes over %d parts, not less than their %d-byte triangle", got, k, triangle)
	}
}
