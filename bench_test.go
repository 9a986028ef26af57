// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablations of the design choices called out in
// DESIGN.md. The tables' numbers themselves are regenerated by
// cmd/fairbench; these benchmarks measure the cost of each cell.
//
// Paper-scale benchmarks (7300 workers) take seconds per iteration; run
// with -short to use reduced populations.
package fairrank_test

import (
	"context"
	"fmt"
	"testing"

	"fairrank"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/emd"
	"fairrank/internal/partition"
	"fairrank/internal/rng"
	"fairrank/internal/scoring"
	"fairrank/internal/simulate"
)

// population returns the requested worker count, shrunk under -short.
func population(b *testing.B, n int) int {
	if testing.Short() && n > 500 {
		return 500
	}
	return n
}

func benchWorkers(b *testing.B, n int) *fairrank.Dataset {
	b.Helper()
	ds, err := fairrank.GenerateWorkers(n, 42)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// runSpec dispatches one audit through the session registry, failing the
// benchmark on error.
func runSpec(b *testing.B, spec core.Spec) *core.Result {
	b.Helper()
	res, err := core.Run(context.Background(), spec)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func runAlgo(b *testing.B, e *core.Evaluator, algo simulate.AlgorithmID, seed uint64) *core.Result {
	b.Helper()
	return runSpec(b, core.Spec{Algorithm: string(algo), Evaluator: e, Seed: seed})
}

// benchTable measures every (algorithm, function) cell of one table.
func benchTable(b *testing.B, workers int, funcs []scoring.Func) {
	ds, err := simulate.PaperWorkers(workers, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, f := range funcs {
		for _, algo := range simulate.AllAlgorithms {
			b.Run(fmt.Sprintf("%s/%s", f.Name(), algo), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					e, err := core.NewEvaluator(ds, f, core.Config{Bins: 10})
					if err != nil {
						b.Fatal(err)
					}
					res := runAlgo(b, e, algo, 42)
					if res.Partitioning == nil {
						b.Fatal("no partitioning")
					}
				}
			})
		}
	}
}

// BenchmarkTable1 measures Table 1: 500 workers, random functions f1–f5,
// all five algorithms.
func BenchmarkTable1(b *testing.B) {
	funcs, err := simulate.RandomFunctions()
	if err != nil {
		b.Fatal(err)
	}
	benchTable(b, simulate.SmallPopulation, funcs)
}

// BenchmarkTable2 measures Table 2: 7300 workers. To keep the full -bench=.
// sweep tractable it covers the two qualitatively distinct columns — f1
// (two observed attributes) and f4 (single observed attribute); run
// cmd/fairbench -table 2 for all five columns.
func BenchmarkTable2(b *testing.B) {
	funcs, err := simulate.RandomFunctions()
	if err != nil {
		b.Fatal(err)
	}
	benchTable(b, population(b, simulate.LargePopulation), []scoring.Func{funcs[0], funcs[3]})
}

// BenchmarkTable3 measures Table 3: 7300 workers, biased functions. It
// covers f6 (single-attribute bias) and f7 (two-attribute bias); run
// cmd/fairbench -table 3 for all four columns.
func BenchmarkTable3(b *testing.B) {
	funcs, err := simulate.BiasedFunctions(42)
	if err != nil {
		b.Fatal(err)
	}
	benchTable(b, population(b, simulate.LargePopulation), []scoring.Func{funcs[0], funcs[1]})
}

// BenchmarkFigure1Toy measures the Figure 1 toy example end to end:
// unbalanced recovering the optimum partitioning of the 10-worker instance.
func BenchmarkFigure1Toy(b *testing.B) {
	ds, err := simulate.Figure1Workers()
	if err != nil {
		b.Fatal(err)
	}
	f := simulate.Figure1Func()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := core.NewEvaluator(ds, f, core.Config{Bins: 10})
		if err != nil {
			b.Fatal(err)
		}
		res := runSpec(b, core.Spec{Algorithm: "unbalanced", Evaluator: e})
		if res.Partitioning.Size() != 4 {
			b.Fatalf("toy optimum has %d parts", res.Partitioning.Size())
		}
	}
}

// BenchmarkExhaustiveTiny measures the exact solver on an instance small
// enough to enumerate (two attributes), the regime where the paper's
// brute-force comparison is feasible at all.
func BenchmarkExhaustiveTiny(b *testing.B) {
	ds := benchWorkers(b, 100)
	f, err := fairrank.NewLinearFunc("f1", map[string]float64{
		"LanguageTest": 0.5, "ApprovalRate": 0.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := core.NewEvaluator(ds, f, core.Config{Bins: 10})
		if err != nil {
			b.Fatal(err)
		}
		runSpec(b, core.Spec{Algorithm: "exhaustive", Evaluator: e, Attrs: []int{0, 1}, Budget: 100000})
	}
}

// BenchmarkAblationBins varies the histogram bin count (DESIGN.md §2.2).
func BenchmarkAblationBins(b *testing.B) {
	ds := benchWorkers(b, 500)
	f, _ := fairrank.NewLinearFunc("f1", map[string]float64{
		"LanguageTest": 0.5, "ApprovalRate": 0.5,
	})
	for _, bins := range []int{5, 10, 20, 50} {
		b.Run(fmt.Sprintf("bins=%d", bins), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := core.NewEvaluator(ds, f, core.Config{Bins: bins})
				if err != nil {
					b.Fatal(err)
				}
				runSpec(b, core.Spec{Evaluator: e})
			}
		})
	}
}

// BenchmarkAblationGround compares the two EMD ground distances
// (DESIGN.md §2.1).
func BenchmarkAblationGround(b *testing.B) {
	ds := benchWorkers(b, 500)
	f, _ := fairrank.NewLinearFunc("f1", map[string]float64{
		"LanguageTest": 0.5, "ApprovalRate": 0.5,
	})
	for _, g := range []struct {
		name   string
		ground emd.Ground
	}{{"score", emd.GroundScore}, {"index", emd.GroundIndex}} {
		b.Run(g.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := core.NewEvaluator(ds, f, core.Config{Bins: 10, Ground: g.ground})
				if err != nil {
					b.Fatal(err)
				}
				runSpec(b, core.Spec{Evaluator: e})
			}
		})
	}
}

// BenchmarkAblationMetric compares EMD against the future-work metrics
// (DESIGN.md §2.3).
func BenchmarkAblationMetric(b *testing.B) {
	ds := benchWorkers(b, 500)
	f, _ := fairrank.NewLinearFunc("f1", map[string]float64{
		"LanguageTest": 0.5, "ApprovalRate": 0.5,
	})
	for _, m := range []emd.Metric{emd.MetricEMD, emd.MetricL1, emd.MetricJS, emd.MetricKS} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := core.NewEvaluator(ds, f, core.Config{Bins: 10, Metric: m})
				if err != nil {
					b.Fatal(err)
				}
				runSpec(b, core.Spec{Evaluator: e})
			}
		})
	}
}

// BenchmarkAblationExact compares the paper's binned EMD against the
// bin-free exact EMD (DESIGN.md §2.2's limit case).
func BenchmarkAblationExact(b *testing.B) {
	ds := benchWorkers(b, 500)
	f, _ := fairrank.NewLinearFunc("f1", map[string]float64{
		"LanguageTest": 0.5, "ApprovalRate": 0.5,
	})
	for _, mode := range []struct {
		name string
		cfg  core.Config
	}{
		{"binned10", core.Config{Bins: 10}},
		{"binned100", core.Config{Bins: 100}},
		{"exact", core.Config{Exact: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := core.NewEvaluator(ds, f, mode.cfg)
				if err != nil {
					b.Fatal(err)
				}
				runSpec(b, core.Spec{Evaluator: e})
			}
		})
	}
}

// BenchmarkBeamWidth measures the beam-search extension at several widths
// against the width-1 greedy baseline.
func BenchmarkBeamWidth(b *testing.B) {
	ds := benchWorkers(b, 500)
	f, _ := fairrank.NewLinearFunc("f1", map[string]float64{
		"LanguageTest": 0.5, "ApprovalRate": 0.5,
	})
	for _, width := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := core.NewEvaluator(ds, f, core.Config{Bins: 10})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := core.Beam(e, nil, width); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCache measures the histogram/pair caching win
// (DESIGN.md §2.4): a cold evaluator rebuilds everything per call, a warm
// one serves AvgPairwise from its caches.
func BenchmarkAblationCache(b *testing.B) {
	ds := benchWorkers(b, 500)
	f, _ := fairrank.NewLinearFunc("f1", map[string]float64{
		"LanguageTest": 0.5, "ApprovalRate": 0.5,
	})
	fullSplit := func(e *core.Evaluator) []*partition.Partition {
		parts := []*partition.Partition{partition.Root(ds)}
		for a := range ds.Schema().Protected {
			parts = partition.SplitAll(ds, parts, a)
		}
		return parts
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e, err := core.NewEvaluator(ds, f, core.Config{Bins: 10, Parallelism: 1})
			if err != nil {
				b.Fatal(err)
			}
			e.AvgPairwise(fullSplit(e))
		}
	})
	b.Run("warm", func(b *testing.B) {
		e, err := core.NewEvaluator(ds, f, core.Config{Bins: 10, Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		parts := fullSplit(e)
		e.AvgPairwise(parts) // prime
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.AvgPairwise(parts)
		}
	})
}

// BenchmarkScalingWorkers traces the runtime-vs-population curve behind the
// paper's efficiency discussion ("the larger the dataset, the more time it
// took for all algorithms to finish"): balanced on f1 at increasing worker
// counts up to paper scale.
func BenchmarkScalingWorkers(b *testing.B) {
	f, _ := fairrank.NewLinearFunc("f1", map[string]float64{
		"LanguageTest": 0.5, "ApprovalRate": 0.5,
	})
	sizes := []int{500, 1000, 2000, 4000, simulate.LargePopulation}
	for _, n := range sizes {
		n := population(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds := benchWorkers(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := core.NewEvaluator(ds, f, core.Config{Bins: 10})
				if err != nil {
					b.Fatal(err)
				}
				runSpec(b, core.Spec{Evaluator: e})
			}
		})
	}
}

// BenchmarkIncrementalDelta measures the delta-evaluation win at the heart
// of the incremental engine. A k-part partitioning is refined by splitting
// exactly one part in two (Δ = 2 changed parts): from scratch the successor
// costs k(k+1)/2 distance computations, while a primed evaluator resolves
// every unchanged pair from its caches and computes only the ~2k pairs that
// touch the changed parts. scratch-serial and scratch-parallel bound the
// old evaluator's behavior; incremental is the engine's steady state.
func BenchmarkIncrementalDelta(b *testing.B) {
	for _, k := range []int{16, 64, 256} {
		n := 2000
		if 8*k > n {
			n = 8 * k
		}
		schema := &dataset.Schema{
			Protected: []dataset.Attribute{
				dataset.Num("Cell", 0, 1, k),
				dataset.Cat("Flag", "No", "Yes"),
			},
			Observed: []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
		}
		r := rng.New(7)
		bld := dataset.NewBuilder(schema)
		for i := 0; i < n; i++ {
			cell := i % k
			flag := "No"
			if cell == 0 && r.Float64() < 0.5 {
				flag = "Yes"
			}
			bld.Add("w", map[string]any{
				"Cell": (float64(cell) + 0.5) / float64(k),
				"Flag": flag,
			}, map[string]any{"Score": r.Float64()})
		}
		ds, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		f := scoring.ScoreFunc{FuncName: "s", Fn: func(ds *dataset.Dataset, i int) float64 {
			return ds.Observed(0, i)
		}}
		parent := partition.Split(ds, partition.Root(ds), 0)
		if len(parent) != k {
			b.Fatalf("parent has %d parts, want %d", len(parent), k)
		}
		split0 := partition.Split(ds, parent[0], 1)
		if len(split0) != 2 {
			b.Fatalf("refined part has %d children, want 2", len(split0))
		}
		child := append(append([]*partition.Partition{}, split0...), parent[1:]...)

		newEval := func(parallelism int) *core.Evaluator {
			e, err := core.NewEvaluator(ds, f, core.Config{Bins: 10, Parallelism: parallelism})
			if err != nil {
				b.Fatal(err)
			}
			return e
		}
		b.Run(fmt.Sprintf("scratch-serial/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				newEval(1).AvgPairwise(child)
			}
		})
		b.Run(fmt.Sprintf("scratch-parallel/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				newEval(0).AvgPairwise(child)
			}
		})
		b.Run(fmt.Sprintf("incremental/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := newEval(0)
				e.AvgPairwise(parent) // prime with the predecessor state
				b.StartTimer()
				e.AvgPairwise(child)
			}
		})
	}
}

// BenchmarkEMDPair is the innermost hot loop: one closed-form 1-D EMD.
func BenchmarkEMDPair(b *testing.B) {
	p := make([]float64, 10)
	q := make([]float64, 10)
	r := rng.New(1)
	sp, sq := 0.0, 0.0
	for i := range p {
		p[i], q[i] = r.Float64(), r.Float64()
		sp += p[i]
		sq += q[i]
	}
	for i := range p {
		p[i] /= sp
		q[i] /= sq
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emd.PMFDistance(p, q, 0.1)
	}
}

// BenchmarkHistogramBuild measures building one partition histogram at
// Table 2 scale.
func BenchmarkHistogramBuild(b *testing.B) {
	ds := benchWorkers(b, population(b, simulate.LargePopulation))
	f, _ := fairrank.NewLinearFunc("f1", map[string]float64{
		"LanguageTest": 0.5, "ApprovalRate": 0.5,
	})
	e, err := core.NewEvaluator(ds, f, core.Config{Bins: 10})
	if err != nil {
		b.Fatal(err)
	}
	root := partition.Root(ds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Histogram(root)
	}
}
