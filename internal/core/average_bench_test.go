package core_test

import (
	"context"
	"math"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/simulate"
)

// averageSink keeps BenchmarkAverage's results live.
var averageSink float64

// BenchmarkAverage times Definition 2 over the parts of all-attributes'
// full split of the paper's 7,300-worker population under f1 (1,767
// parts): path=identity is the exact sorted-column identity every binned
// EMD average takes, path=pair the block pair fill through distOf over
// the same reps. The average gate of `make gates` holds the identity at
// least 10x faster.
func BenchmarkAverage(b *testing.B) {
	ds, err := simulate.PaperWorkers(simulate.LargePopulation, 42)
	if err != nil {
		b.Fatal(err)
	}
	funcs, err := simulate.RandomFunctions()
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.NewEvaluator(ds, funcs[0], core.Config{Parallelism: 1})
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Run(context.Background(), core.Spec{Algorithm: "all-attributes", Evaluator: e})
	if err != nil {
		b.Fatal(err)
	}
	if k := len(res.Partitioning.Parts); k < 1000 {
		b.Fatalf("full split has %d parts; the gate needs at least 1000", k)
	}
	identity, pairs := core.AveragePaths(e, res.Partitioning.Parts)
	if u, v := identity(), pairs(); math.Abs(u-v) > 1e-12*u {
		b.Fatalf("identity %v and pair fill %v disagree", u, v)
	}
	for _, path := range []struct {
		name string
		avg  func() float64
	}{{"path=pair", pairs}, {"path=identity", identity}} {
		b.Run(path.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				averageSink = path.avg()
			}
		})
	}
}
