package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/partition"
	"fairrank/internal/scoring"
	"fairrank/internal/simulate"
)

// BenchmarkPruneTable2 measures the branch-and-bound pruning cascade
// (DESIGN.md §9) on the Table 2 suite — the paper's five algorithms, in
// simulate.AllAlgorithms row order: each cell runs the same audit with the
// cascade off (the unexported switch, Unprune) and on (the default path),
// and `make bench-prune` gates the paired per-round speedup with
// cmd/benchdiff. Cell order matters twice: prune=off/prune=on are adjacent
// sub-runs of the same cell so benchdiff's per-round pairing compares like
// with like, and the cell order mirrors BenchmarkTable2's row order so the
// control gate can pair the default path's two benchmarks cell for cell.
// Under -short the population shrinks to 500 workers.
func BenchmarkPruneTable2(b *testing.B) {
	funcs, err := simulate.RandomFunctions()
	if err != nil {
		b.Fatal(err)
	}
	workers := simulate.LargePopulation
	if testing.Short() {
		workers = 500
	}
	ds, err := simulate.PaperWorkers(workers, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range []scoring.Func{funcs[0], funcs[3]} {
		for _, alg := range simulate.AllAlgorithms {
			for _, variant := range []string{"off", "on"} {
				b.Run(fmt.Sprintf("f=%s,a=%s/prune=%s", f.Name(), alg, variant), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						e, err := core.NewEvaluator(ds, f, core.Config{Bins: 10})
						if err != nil {
							b.Fatal(err)
						}
						if variant == "off" {
							core.Unprune(e)
						}
						_, err = core.Run(context.Background(), core.Spec{Algorithm: string(alg), Evaluator: e, Seed: 42})
						if err != nil && !errors.Is(err, partition.ErrBudgetExceeded) {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
