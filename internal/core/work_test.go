package core_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/emd"
	"fairrank/internal/scoring"
	"fairrank/internal/simulate"
	"fairrank/internal/telemetry"
)

// workPin is the engine work of one run: the probes it counted, the reps
// it built, the pair distances it computed and those a memo served, the
// parts and steps of its result, and its unfairness bits.
type workPin struct {
	run                       string
	probes, reps, pairs, hits int
	parts, steps              int
	bits                      uint64
}

func (p workPin) String() string {
	return fmt.Sprintf("{%q, %d, %d, %d, %d, %d, %d, %#x},", p.run, p.probes, p.reps, p.pairs, p.hits, p.parts, p.steps, p.bits)
}

// workRun runs one algorithm on a fresh evaluator and reads its work.
// width > 0 runs Beam of that width, which Run does not drive.
func workRun(t *testing.T, ds *dataset.Dataset, f scoring.Func, cfg core.Config, alg string, width int, attrs []int) workPin {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg.Metrics = reg
	e, err := core.NewEvaluator(ds, f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res *core.Result
	if width > 0 {
		reps0, pairs0, hits0 := core.Work(e)
		if res, err = core.Beam(e, attrs, width); err != nil {
			t.Fatal(err)
		}
		reps, pairs, hits := core.Work(e)
		res.Stats = core.RunStats{RepsInterned: reps - reps0, PairsComputed: pairs - pairs0, CacheHits: hits - hits0}
	} else if res, err = core.Run(context.Background(), core.Spec{Algorithm: alg, Evaluator: e, Attrs: attrs, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	return workPin{
		probes: int(reg.Snapshot().Counters[core.MetricProbes]),
		reps:   res.Stats.RepsInterned, pairs: res.Stats.PairsComputed, hits: res.Stats.CacheHits,
		parts: res.Partitioning.Size(), steps: len(res.Steps), bits: math.Float64bits(res.Unfairness),
	}
}

// TestEngineWorkPinned pins, run by run, how much work the engine does and
// what it returns: every heuristic and Beam of widths 1 and 3 over three
// populations of the paper's schema (one whose workers are each their own
// cell, so binned mode searches worker rows) under binned EMD, KS, Exact
// mode and a MinPartitionSize guard, and both exhaustive solvers over
// attribute subsets in binned and Exact mode. The values were recorded
// before the searches shared one split; a change that moves one changes
// what the engine computes or how much, and re-recording is for an
// intended change only.
func TestEngineWorkPinned(t *testing.T) {
	want := map[string]workPin{}
	for _, p := range workPins {
		want[p.run] = p
	}
	funcs, err := simulate.RandomFunctions()
	if err != nil {
		t.Fatal(err)
	}
	pops := []struct {
		name string
		n    int
		seed uint64
		f    scoring.Func
	}{
		{"distinct", 80, 1, funcs[1]},
		{"p500", simulate.SmallPopulation, 42, funcs[0]},
		{"p7300", simulate.LargePopulation, 42, funcs[3]},
	}
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"emd", core.Config{Parallelism: 2}},
		{"ks", core.Config{Parallelism: 2, Metric: emd.MetricKS}},
		{"exact", core.Config{Parallelism: 2, Exact: true}},
		{"min40", core.Config{Parallelism: 2, MinPartitionSize: 40}},
	}
	heuristics := []string{"balanced", "unbalanced", "r-balanced", "r-unbalanced", "all-attributes"}
	check := func(got workPin) {
		t.Helper()
		w, ok := want[got.run]
		if !ok {
			t.Errorf("no pin for %s; measured %v", got.run, got)
		} else if got != w {
			t.Errorf("%s: measured %v\n\tpinned %v", got.run, got, w)
		}
		delete(want, got.run)
	}
	for _, pop := range pops {
		ds, err := simulate.PaperWorkers(pop.n, pop.seed)
		if err != nil {
			t.Fatal(err)
		}
		if pop.name == "distinct" && ds.Cells().N() != ds.N() {
			t.Fatalf("population %s: %d cells for %d workers", pop.name, ds.Cells().N(), ds.N())
		}
		for _, c := range configs {
			for _, alg := range heuristics {
				got := workRun(t, ds, pop.f, c.cfg, alg, 0, nil)
				got.run = pop.name + "/" + c.name + "/" + alg
				check(got)
			}
			for _, width := range []int{1, 3} {
				got := workRun(t, ds, pop.f, c.cfg, "", width, nil)
				got.run = fmt.Sprintf("%s/%s/beam-%d", pop.name, c.name, width)
				check(got)
			}
		}
		// Gender × Country × Language for the tree space (at most 4,684
		// candidates), Gender × Country (6 cells, 203 groupings) for the
		// cell space.
		for _, c := range configs {
			if c.name == "ks" {
				continue
			}
			for _, x := range []struct {
				alg   string
				attrs []int
			}{
				{"exhaustive", []int{0, 1, 3}},
				{"exhaustive-cells", []int{0, 1}},
			} {
				got := workRun(t, ds, pop.f, c.cfg, x.alg, 0, x.attrs)
				got.run = fmt.Sprintf("%s/%s/%s%v", pop.name, c.name, x.alg, x.attrs)
				check(got)
			}
		}
	}
	for run := range want {
		t.Errorf("pin %s names no run", run)
	}
}

var workPins = []workPin{
	{"distinct/emd/balanced", 21, 373, 0, 0, 75, 6, 0x3fcba386be5f2adc},
	{"distinct/emd/unbalanced", 205, 342, 0, 0, 40, 61, 0x3fce69f88b0dcf95},
	{"distinct/emd/r-balanced", 5, 117, 0, 0, 67, 5, 0x3fcb23d2e3e91ef6},
	{"distinct/emd/r-unbalanced", 87, 106, 0, 0, 57, 87, 0x3fcc638aefecf96c},
	{"distinct/emd/all-attributes", 6, 134, 0, 0, 80, 6, 0x3fcb3229bcdb5146},
	{"distinct/emd/beam-1", 21, 373, 0, 0, 75, 6, 0x3fcba386be5f2adc},
	{"distinct/emd/beam-3", 51, 1126, 0, 0, 75, 6, 0x3fcba386be5f2adc},
	{"distinct/ks/balanced", 21, 403, 21364, 0, 80, 6, 0x3feb3d91d2a2067b},
	{"distinct/ks/unbalanced", 235, 362, 2411, 0, 49, 75, 0x3fea7bf4b31a6e98},
	{"distinct/ks/r-balanced", 6, 133, 8560, 0, 80, 6, 0x3feb3d91d2a2067b},
	{"distinct/ks/r-unbalanced", 96, 108, 2893, 0, 62, 96, 0x3fe9ae52666fa452},
	{"distinct/ks/all-attributes", 6, 134, 3160, 0, 80, 6, 0x3feb3d91d2a2067b},
	{"distinct/ks/beam-1", 21, 403, 21364, 0, 80, 6, 0x3feb3d91d2a2067b},
	{"distinct/ks/beam-3", 51, 1120, 61874, 0, 80, 6, 0x3feb3d91d2a2067b},
	{"distinct/exact/balanced", 21, 373, 19133, 0, 75, 6, 0x3fcba8b2c17cfe4e},
	{"distinct/exact/unbalanced", 229, 356, 2278, 0, 48, 75, 0x3fced40dc14ace4c},
	{"distinct/exact/r-balanced", 5, 117, 5400, 0, 67, 5, 0x3fcb61e9d112e2f5},
	{"distinct/exact/r-unbalanced", 56, 77, 1167, 0, 35, 56, 0x3fcacb8057a3ced4},
	{"distinct/exact/all-attributes", 6, 134, 3160, 0, 80, 6, 0x3fcb43ea1d483c75},
	{"distinct/exact/beam-1", 21, 373, 19133, 0, 75, 6, 0x3fcba8b2c17cfe4e},
	{"distinct/exact/beam-3", 51, 1126, 59764, 0, 75, 6, 0x3fcba8b2c17cfe52},
	{"distinct/min40/balanced", 11, 1, 0, 0, 1, 2, 0x0},
	{"distinct/min40/unbalanced", 11, 1, 0, 0, 1, 2, 0x0},
	{"distinct/min40/r-balanced", 2, 1, 0, 0, 1, 2, 0x0},
	{"distinct/min40/r-unbalanced", 2, 1, 0, 0, 1, 2, 0x0},
	{"distinct/min40/all-attributes", 6, 1, 0, 0, 1, 6, 0x0},
	{"distinct/min40/beam-1", 6, 1, 0, 0, 1, 1, 0x0},
	{"distinct/min40/beam-3", 6, 1, 0, 0, 1, 1, 0x0},
	{"distinct/emd/exhaustive[0 1 3]", 0, 159, 0, 0, 6, 0, 0x3fc40183d7058bc8},
	{"distinct/emd/exhaustive-cells[0 1]", 2, 9, 0, 0, 3, 0, 0x3fba54d880bb3ee7},
	{"distinct/exact/exhaustive[0 1 3]", 0, 159, 802, 332001, 6, 0, 0x3fc2ce619383ca6f},
	{"distinct/exact/exhaustive-cells[0 1]", 2, 9, 301, 555, 2, 0, 0x3fba251799a98b06},
	{"distinct/min40/exhaustive[0 1 3]", 0, 1, 0, 0, 1, 0, 0x0},
	{"distinct/min40/exhaustive-cells[0 1]", 2, 1, 0, 0, 1, 0, 0x0},
	{"p500/emd/balanced", 21, 1448, 0, 0, 449, 6, 0x3fcbc7d4dd17154b},
	{"p500/emd/unbalanced", 733, 1328, 0, 0, 254, 377, 0x3fcd318724af0c0d},
	{"p500/emd/r-balanced", 6, 739, 0, 0, 449, 6, 0x3fcbc7d4dd17154b},
	{"p500/emd/r-unbalanced", 373, 553, 0, 0, 282, 373, 0x3fcc9f035cb83e75},
	{"p500/emd/all-attributes", 6, 701, 0, 0, 449, 6, 0x3fcbc7d4dd17154b},
	{"p500/emd/beam-1", 21, 1448, 0, 0, 449, 6, 0x3fcbc7d4dd17154b},
	{"p500/emd/beam-3", 51, 4821, 0, 0, 449, 6, 0x3fcbc7d4dd17154b},
	{"p500/ks/balanced", 21, 1645, 330569, 0, 449, 6, 0x3feab926be52cea8},
	{"p500/ks/unbalanced", 866, 1476, 51449, 0, 300, 429, 0x3fea1fbce6270631},
	{"p500/ks/r-balanced", 6, 739, 150551, 0, 449, 6, 0x3feab926be52cf21},
	{"p500/ks/r-unbalanced", 256, 407, 27437, 0, 217, 256, 0x3fe9dbe12158e07a},
	{"p500/ks/all-attributes", 6, 701, 100576, 0, 449, 6, 0x3feab926be52cef6},
	{"p500/ks/beam-1", 21, 1645, 330569, 0, 449, 6, 0x3feab926be52cea8},
	{"p500/ks/beam-3", 51, 4821, 988768, 0, 449, 6, 0x3feab926be52cf1d},
	{"p500/exact/balanced", 21, 1645, 330569, 0, 449, 6, 0x3fcc2f9908eda277},
	{"p500/exact/unbalanced", 821, 1407, 45570, 0, 280, 413, 0x3fce1533e515a603},
	{"p500/exact/r-balanced", 6, 739, 150551, 0, 449, 6, 0x3fcc2f9908eda25e},
	{"p500/exact/r-unbalanced", 255, 407, 27979, 0, 218, 255, 0x3fccad068dda8cf3},
	{"p500/exact/all-attributes", 6, 701, 100576, 0, 449, 6, 0x3fcc2f9908eda2bd},
	{"p500/exact/beam-1", 21, 1645, 330569, 0, 449, 6, 0x3fcc2f9908eda277},
	{"p500/exact/beam-3", 51, 4821, 988768, 0, 449, 6, 0x3fcc2f9908eda3c3},
	{"p500/min40/balanced", 15, 41, 0, 0, 7, 3, 0x3fa4e73d3fea47a1},
	{"p500/min40/unbalanced", 41, 39, 0, 0, 6, 9, 0x3fa6b8f6d16a2d86},
	{"p500/min40/r-balanced", 3, 8, 0, 0, 6, 3, 0x3fa275853877e87c},
	{"p500/min40/r-unbalanced", 6, 8, 0, 0, 4, 6, 0x3fa3718d9953dbe1},
	{"p500/min40/all-attributes", 6, 9, 0, 0, 6, 6, 0x3fa26a9c1b26f343},
	{"p500/min40/beam-1", 15, 41, 0, 0, 7, 3, 0x3fa4e73d3fea47a1},
	{"p500/min40/beam-3", 33, 59, 0, 0, 10, 3, 0x3fa94c09ecede777},
	{"p500/emd/exhaustive[0 1 3]", 0, 159, 0, 0, 10, 0, 0x3fadd38c510ec1e5},
	{"p500/emd/exhaustive-cells[0 1]", 2, 9, 0, 0, 3, 0, 0x3fa9bce0d046e545},
	{"p500/exact/exhaustive[0 1 3]", 0, 159, 802, 332001, 8, 0, 0x3fae619a96046bd0},
	{"p500/exact/exhaustive-cells[0 1]", 2, 9, 301, 555, 3, 0, 0x3faa5e8f27246918},
	{"p500/min40/exhaustive[0 1 3]", 0, 49, 0, 0, 6, 0, 0x3fa6c08dcc7d9680},
	{"p500/min40/exhaustive-cells[0 1]", 2, 9, 0, 0, 3, 0, 0x3fa9bce0d046e545},
	{"p7300/emd/balanced", 21, 4443, 0, 0, 1767, 6, 0x3fcd33bff91cccbc},
	{"p7300/emd/unbalanced", 1358, 3803, 0, 0, 1529, 953, 0x3fcd582f016abd50},
	{"p7300/emd/r-balanced", 6, 2360, 0, 0, 1767, 6, 0x3fcd33bff91cccbc},
	{"p7300/emd/r-unbalanced", 400, 1359, 0, 0, 933, 400, 0x3fcd9d98833fb324},
	{"p7300/emd/all-attributes", 6, 2256, 0, 0, 1767, 6, 0x3fcd33bff91cccbc},
	{"p7300/emd/beam-1", 21, 4443, 0, 0, 1767, 6, 0x3fcd33bff91cccbc},
	{"p7300/emd/beam-3", 51, 12812, 0, 0, 1767, 6, 0x3fcd33bff91cccbc},
	{"p7300/ks/balanced", 21, 4443, 2265715, 0, 1767, 6, 0x3fe0aef716be0672},
	{"p7300/ks/unbalanced", 1450, 3998, 1399467, 0, 1659, 1004, 0x3fe0d1275e84eb8c},
	{"p7300/ks/r-balanced", 6, 2360, 1641693, 0, 1767, 6, 0x3fe0aef716be0323},
	{"p7300/ks/r-unbalanced", 604, 2031, 995953, 0, 1393, 604, 0x3fe0d46c90113f8a},
	{"p7300/ks/all-attributes", 6, 2256, 1560261, 0, 1767, 6, 0x3fe0aef716be0974},
	{"p7300/ks/beam-1", 21, 4443, 2265715, 0, 1767, 6, 0x3fe0aef716be0672},
	{"p7300/ks/beam-3", 51, 13162, 6791546, 0, 1767, 6, 0x3fe0aef716be0672},
	{"p7300/exact/balanced", 21, 4443, 2265715, 0, 1767, 6, 0x3fcd9d3fcc2656e0},
	{"p7300/exact/unbalanced", 1388, 3838, 1161974, 0, 1509, 970, 0x3fcdced3dbe81e6b},
	{"p7300/exact/r-balanced", 6, 2360, 1641693, 0, 1767, 6, 0x3fcd9d3fcc2657bc},
	{"p7300/exact/r-unbalanced", 643, 2138, 1065518, 0, 1442, 643, 0x3fcde8858b444ac5},
	{"p7300/exact/all-attributes", 6, 2256, 1560261, 0, 1767, 6, 0x3fcd9d3fcc2655cf},
	{"p7300/exact/beam-1", 21, 4443, 2265715, 0, 1767, 6, 0x3fcd9d3fcc2656e0},
	{"p7300/exact/beam-3", 51, 12812, 6728196, 0, 1767, 6, 0x3fcd9d3fcc265732},
	{"p7300/min40/balanced", 20, 442, 0, 0, 117, 5, 0x3fac4803c8d011b2},
	{"p7300/min40/unbalanced", 441, 475, 0, 0, 113, 165, 0x3fb074d1e3f73f61},
	{"p7300/min40/r-balanced", 6, 128, 0, 0, 75, 6, 0x3fa5e1caad8b99b1},
	{"p7300/min40/r-unbalanced", 81, 87, 0, 0, 58, 81, 0x3fa90b429937ae58},
	{"p7300/min40/all-attributes", 6, 129, 0, 0, 90, 6, 0x3fa7f18186e4e9b0},
	{"p7300/min40/beam-1", 20, 442, 0, 0, 117, 5, 0x3fac4803c8d011b2},
	{"p7300/min40/beam-3", 48, 1240, 0, 0, 137, 5, 0x3faffda454887b3d},
	{"p7300/emd/exhaustive[0 1 3]", 0, 159, 0, 0, 7, 0, 0x3f9d5c621e188104},
	{"p7300/emd/exhaustive-cells[0 1]", 2, 9, 0, 0, 2, 0, 0x3f9587c143e468cb},
	{"p7300/exact/exhaustive[0 1 3]", 0, 159, 802, 332001, 7, 0, 0x3f9d4b02899cbf4e},
	{"p7300/exact/exhaustive-cells[0 1]", 2, 9, 301, 555, 2, 0, 0x3f95d35165af742c},
	{"p7300/min40/exhaustive[0 1 3]", 0, 159, 0, 0, 7, 0, 0x3f9d5c621e188104},
	{"p7300/min40/exhaustive-cells[0 1]", 2, 9, 0, 0, 2, 0, 0x3f9587c143e468cb},
}
