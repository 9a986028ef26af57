package core

import (
	"context"

	"fairrank/internal/partition"
)

// AveragePaths exposes to this directory's external tests the two ways
// of averaging the given parts that `make bench-average` compares: the
// exact sorted-column identity, and the pair path's block fill through
// distOf (finalAvg), serial, over the same reps. BenchmarkAverage needs
// the simulate package, which imports core and so cannot be used from
// package core itself.
func AveragePaths(e *Evaluator, parts []*partition.Partition) (identity, pairs func() float64) {
	reps := make([]*rep, len(parts))
	for i, p := range parts {
		reps[i] = e.repFor(p)
	}
	return func() float64 { return e.identityAvg(reps) },
		func() float64 { return e.finalAvg(context.Background(), reps, 1, finalBlock) }
}
