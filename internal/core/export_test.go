package core

import (
	"context"
	"slices"

	"fairrank/internal/partition"
)

// AveragePaths exposes to this directory's external tests the two ways
// of averaging the given parts that BenchmarkAverage compares: the
// exact sorted-column identity, and the pair path's block fill through
// distOf (finalAvg), serial, over the same reps. BenchmarkAverage needs
// the simulate package, which imports core and so cannot be used from
// package core itself.
func AveragePaths(e *Evaluator, parts []*partition.Partition) (identity, pairs func() float64) {
	reps := make([]*rep, len(parts))
	for i, p := range parts {
		reps[i] = &rep{data: e.buildData(p.Indices)}
	}
	return func() float64 { return e.identityAvg(reps) },
		func() float64 { return e.finalAvg(context.Background(), reps, 1, finalBlock) }
}

// Work returns the evaluator's running counts behind RunStats: the reps
// it built, the pair distances it computed and those an exhaustive memo
// served. Run reports them as per-run deltas; Beam, which Run does not
// drive, is measured from them directly.
func Work(e *Evaluator) (reps, computed, served int) {
	return int(e.reps.Load()), int(e.computed.Load()), int(e.served.Load())
}

// EachCandidate streams the candidates of the exhaustive solver name
// ("exhaustive" or "exhaustive-cells") over attrs (nil for all) within
// budget, in the solver's order, each as the worker partitions the solver
// returns for a winner. visit returning false stops the stream. It fails
// as the solver does: partition.ErrBudgetExceeded over budget, ctx.Err()
// once ctx is done.
func EachCandidate(ctx context.Context, e *Evaluator, name string, attrs []int, budget int, visit func(*partition.Partitioning) bool) error {
	build := newTreeSpace
	if name == "exhaustive-cells" {
		build = newCellSpace
	}
	if attrs == nil {
		attrs = e.Attrs()
	}
	sp, err := build(ctx, e, attrs, budget)
	if err != nil {
		return err
	}
	sp.each(func([]*rep) bool {
		sp.keep()
		return ctx.Err() == nil && visit(&partition.Partitioning{Parts: e.workerParts(slices.Clone(sp.kept()))})
	})
	return ctx.Err()
}
