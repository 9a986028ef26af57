package core_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/partition"
	"fairrank/internal/simulate"
)

// TestExhaustiveRefusesBeforeAveraging: the tree space over all six
// attributes of the paper's 7,300-worker population holds far more than
// 10⁷ partitionings. The solver counts it first, so it refuses the run
// within a 1 s deadline, and what it allocates stays far below what the
// budget would let a materialized space reach.
func TestExhaustiveRefusesBeforeAveraging(t *testing.T) {
	ds, err := simulate.PaperWorkers(simulate.LargePopulation, 42)
	if err != nil {
		t.Fatal(err)
	}
	funcs, err := simulate.RandomFunctions()
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEvaluator(ds, funcs[0], core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = core.Run(ctx, core.Spec{Algorithm: "exhaustive", Evaluator: e, Budget: 10_000_000})
	runtime.ReadMemStats(&after)
	if err != partition.ErrBudgetExceeded {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("refusing the space allocated %d MB", grew>>20)
	}
}
