package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/emd"
	"fairrank/internal/partition"
	"fairrank/internal/rng"
	"fairrank/internal/testkit"
)

// This file pins the exhaustive solvers' spaces through EachCandidate
// (export_test.go), which hands out every candidate as worker partitions,
// and their winners against a from-scratch brute force.

// candidates collects every candidate of the named solver's space.
func candidates(t *testing.T, e *Evaluator, name string, attrs []int, budget int) ([]*partition.Partitioning, error) {
	t.Helper()
	var all []*partition.Partitioning
	err := EachCandidate(context.Background(), e, name, attrs, budget, func(pt *partition.Partitioning) bool {
		all = append(all, pt)
		return true
	})
	return all, err
}

func TestEnumerateTreesSmall(t *testing.T) {
	ds := randomDataset(t, 30, 7)
	all, err := candidates(t, mustEval(t, ds, Config{}), "exhaustive", []int{0, 1}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Space with attrs {Gender(2), Language(3)} assuming all values present:
	// leaf(1) + split-G then each of 2 children {leaf or split-L} (2²=4)
	// + split-L then each of 3 children {leaf or split-G} (2³=8) = 13.
	if len(all) != 13 {
		t.Fatalf("enumerated %d partitionings, want 13", len(all))
	}
	for _, pt := range all {
		if err := pt.Validate(ds); err != nil {
			t.Fatalf("enumerated invalid partitioning: %v", err)
		}
	}
}

func TestEnumerateTreesBudget(t *testing.T) {
	e := mustEval(t, randomDataset(t, 30, 8), Config{})
	for _, budget := range []int{3, 12, 0, -1} {
		if _, err := candidates(t, e, "exhaustive", []int{0, 1}, budget); err != partition.ErrBudgetExceeded {
			t.Fatalf("budget %d: err = %v, want ErrBudgetExceeded", budget, err)
		}
	}
	if all, err := candidates(t, e, "exhaustive", []int{0, 1}, 13); err != nil || len(all) != 13 {
		t.Fatalf("budget 13: %d trees, err %v", len(all), err)
	}
}

// TestEnumerateTreesEarlyStop: a visit returning false stops the stream,
// and so does a cancellation, which both solvers then report.
func TestEnumerateTreesEarlyStop(t *testing.T) {
	e := mustEval(t, randomDataset(t, 30, 9), Config{})
	for _, name := range []string{"exhaustive", "exhaustive-cells"} {
		n := 0
		err := EachCandidate(context.Background(), e, name, []int{0, 1}, 1000, func(*partition.Partitioning) bool {
			n++
			return n < 2
		})
		if err != nil || n != 2 {
			t.Fatalf("%s: early stop visited %d, err %v", name, n, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		n = 0
		err = EachCandidate(ctx, e, name, []int{0, 1}, 1000, func(*partition.Partitioning) bool {
			if n++; n == 2 {
				cancel()
			}
			return true
		})
		if err != context.Canceled || n != 2 {
			t.Fatalf("%s: cancel at the 2nd candidate visited %d, err %v", name, n, err)
		}
	}
}

func TestEnumerateCellGroupingsBellCount(t *testing.T) {
	// Gender×Language over a population realizing all 6 cells: the
	// grouping count is Bell(6) = 203.
	ds := randomDataset(t, 200, 11)
	all, err := candidates(t, mustEval(t, ds, Config{}), "exhaustive-cells", []int{0, 1}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range all {
		if err := pt.Validate(ds); err != nil {
			t.Fatalf("invalid grouping: %v", err)
		}
	}
	if len(all) != 203 {
		t.Fatalf("enumerated %d groupings, want Bell(6)=203", len(all))
	}
}

func TestEnumerateCellGroupingsBudgetAndStop(t *testing.T) {
	e := mustEval(t, randomDataset(t, 100, 12), Config{})
	for _, budget := range []int{5, 0} {
		if _, err := candidates(t, e, "exhaustive-cells", []int{0, 1}, budget); err != partition.ErrBudgetExceeded {
			t.Fatalf("budget %d: err = %v", budget, err)
		}
	}
	n := 0
	if err := EachCandidate(context.Background(), e, "exhaustive-cells", []int{0}, 100, func(*partition.Partitioning) bool {
		n++
		return n < 2
	}); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("early stop visited %d", n)
	}
}

// TestCellGroupingKeysDistinct: named unions must not collide on Key, by
// which tests compare partitionings.
func TestCellGroupingKeysDistinct(t *testing.T) {
	all, err := candidates(t, mustEval(t, randomDataset(t, 100, 13), Config{}), "exhaustive-cells", []int{0}, 100)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, pt := range all {
		for _, p := range pt.Parts {
			keys[p.Key()] = true
		}
	}
	// Gender has 2 cells → groupings {c0}{c1} and {c0+c1} → 3 distinct
	// block keys.
	if len(keys) != 3 {
		t.Fatalf("%d distinct keys, want 3: %v", len(keys), keys)
	}
}

// fullFactorial builds a dataset with exactly one worker in every cell of a
// Gender(2) × Language(3) cross product, so cell structure is known exactly:
// 6 non-empty cells, one row each.
func fullFactorial(t *testing.T) *dataset.Dataset {
	t.Helper()
	b := dataset.NewBuilder(testSchema())
	id := 0
	for _, g := range []string{"Male", "Female"} {
		for _, l := range []string{"English", "Indian", "Other"} {
			addWorker(b, g, l, float64(id)/6)
			id++
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// blocksOf projects a partitioning onto its row-index blocks in the
// oracle's canonical key form.
func blocksOf(pt *partition.Partitioning) string {
	blocks := make([][]int, 0, len(pt.Parts))
	for _, p := range pt.Parts {
		blocks = append(blocks, p.Indices)
	}
	return testkit.BlockKey(blocks)
}

// The cell space over k non-empty single-row cells must hold exactly the
// Bell(k) set partitions the oracle enumerates by recursive block
// insertion — same count, same canonical keys, no duplicates.
func TestCellGroupingsMatchOracleSetPartitions(t *testing.T) {
	var o testkit.Oracle
	ds := fullFactorial(t)
	want := map[string]bool{}
	for _, blocks := range o.SetPartitions(6) {
		want[testkit.BlockKey(blocks)] = true
	}
	if len(want) != o.Bell(6) {
		t.Fatalf("oracle produced %d keys, Bell(6)=%d", len(want), o.Bell(6))
	}
	all, err := candidates(t, mustEval(t, ds, Config{}), "exhaustive-cells", []int{0, 1}, 10000)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, pt := range all {
		if err := pt.Validate(ds); err != nil {
			t.Fatalf("invalid partitioning: %v", err)
		}
		key := blocksOf(pt)
		if got[key] {
			t.Fatalf("duplicate grouping %q", key)
		}
		if !want[key] {
			t.Fatalf("grouping %q unknown to the oracle", key)
		}
		got[key] = true
	}
	if len(got) != len(want) {
		t.Fatalf("enumerated %d groupings, oracle has %d", len(got), len(want))
	}
}

// The budget must bite exactly: Bell(6)=203 groupings fit in a budget of
// 203 but not 202.
func TestCellGroupingsBudget(t *testing.T) {
	e := mustEval(t, fullFactorial(t), Config{})
	if all, err := candidates(t, e, "exhaustive-cells", []int{0, 1}, 203); err != nil || len(all) != 203 {
		t.Fatalf("budget 203: %d groupings, err %v", len(all), err)
	}
	if _, err := candidates(t, e, "exhaustive-cells", []int{0, 1}, 202); !errors.Is(err, partition.ErrBudgetExceeded) {
		t.Fatalf("budget 202: got %v, want ErrBudgetExceeded", err)
	}
}

// The tree space of a full-factorial dataset (every split realizes every
// value) holds exactly CountTrees(cardinalities) partitionings, each a
// valid full disjoint cover.
func TestEnumerateTreesMatchesCountTrees(t *testing.T) {
	ds := fullFactorial(t)
	all, err := candidates(t, mustEval(t, ds, Config{}), "exhaustive", []int{0, 1}, 100000)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range all {
		if err := pt.Validate(ds); err != nil {
			t.Fatalf("invalid partitioning: %v", err)
		}
	}
	if want := partition.CountTrees([]int{2, 3}); float64(len(all)) != want {
		t.Fatalf("enumerated %d trees, CountTrees = %v", len(all), want)
	}
}

// On arbitrary generated datasets (empty cells, skewed sizes) every
// candidate of both spaces must still be a valid cover, also under a
// MinPartitionSize guard, which every part then respects.
func TestEnumeratorsAlwaysYieldValidCovers(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		g := testkit.NewGen(seed)
		ds, err := g.WorkerDataset(g.R.IntRange(1, 30))
		if err != nil {
			t.Fatal(err)
		}
		attrs := []int{0}
		if len(ds.Schema().Protected) > 1 {
			attrs = append(attrs, 1)
		}
		for _, minSize := range []int{1, 4} {
			e := mustEvalFunc(t, ds, Config{MinPartitionSize: minSize})
			for _, name := range []string{"exhaustive", "exhaustive-cells"} {
				err := EachCandidate(context.Background(), e, name, attrs, 5000, func(pt *partition.Partitioning) bool {
					if err := pt.Validate(ds); err != nil {
						t.Fatalf("seed %d, %s: invalid partitioning: %v", seed, name, err)
					}
					for _, p := range pt.Parts {
						if p.Size() < minSize && p.Size() != ds.N() {
							t.Fatalf("seed %d, %s: part of %d workers under the minimum %d", seed, name, p.Size(), minSize)
						}
					}
					return true
				})
				if err != nil && !errors.Is(err, partition.ErrBudgetExceeded) {
					t.Fatalf("seed %d, %s: %v", seed, name, err)
				}
			}
		}
	}
}

// TestExhaustiveSaturatesAtMaxInt: counting a space against the largest
// budget saturates instead of overflowing. The tree space over every
// attribute of a wide population and the cell space over its thousands of
// cells both pass 2⁶³ and are refused before any candidate.
func TestExhaustiveSaturatesAtMaxInt(t *testing.T) {
	e, err := NewEvaluator(bigDataset(t, 3000), scoreFunc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"exhaustive", "exhaustive-cells"} {
		_, err := Run(context.Background(), Spec{Algorithm: name, Evaluator: e, Budget: math.MaxInt})
		if err != partition.ErrBudgetExceeded {
			t.Errorf("%s: err = %v, want ErrBudgetExceeded", name, err)
		}
	}
	if n := bell(26, math.MaxInt+1); n != math.MaxInt+1 {
		t.Errorf("Bell(26) saturates at %d", n)
	}
	if n := bell(25, math.MaxInt+1); n != 4638590332229999353 {
		t.Errorf("Bell(25) = %d, want 4638590332229999353", n)
	}
}

// refTrees is the tree space from scratch: every option of p over rest, in
// the solver's order — p as a leaf, then for each attribute the product of
// its children's options, the first child's varying slowest. A split that
// would make a part under the minimum keeps p whole (splitAll).
func refTrees(e *Evaluator, p *partition.Partition, rest []int) [][]*partition.Partition {
	out := [][]*partition.Partition{{p}}
	for _, a := range rest {
		combos := [][]*partition.Partition{nil}
		for _, c := range e.splitAll([]*partition.Partition{p}, a) {
			opts := refTrees(e, c, remove(rest, a))
			var next [][]*partition.Partition
			for _, combo := range combos {
				for _, opt := range opts {
					next = append(next, append(slices.Clone(combo), opt...))
				}
			}
			combos = next
		}
		out = append(out, combos...)
	}
	return out
}

// refCells is the cell space from scratch: the cells of splitAll over
// attrs, grouped in restricted growth order, each block named after its
// cells and listing its workers in ascending order. A space of more than
// budget groupings, by the oracle's Bell number, is returned as nil.
func refCells(e *Evaluator, attrs []int, budget int) [][]*partition.Partition {
	cells := []*partition.Partition{partition.Root(e.ds)}
	for _, a := range attrs {
		cells = e.splitAll(cells, a)
	}
	if (testkit.Oracle{}).Bell(len(cells)) > budget {
		return nil
	}
	var out [][]*partition.Partition
	labels := make([]int, len(cells))
	var walk func(i, top int)
	walk = func(i, top int) {
		if i < len(cells) {
			for l := 0; l <= top+1; l++ {
				labels[i] = l
				walk(i+1, max(top, l))
			}
			return
		}
		parts := make([]*partition.Partition, top+1)
		names := make([][]string, top+1)
		for c, l := range labels {
			if parts[l] == nil {
				parts[l] = &partition.Partition{}
			}
			parts[l].Indices = append(parts[l].Indices, cells[c].Indices...)
			names[l] = append(names[l], "c"+strconv.Itoa(c))
		}
		for l, p := range parts {
			slices.Sort(p.Indices)
			p.Name = "{" + strings.Join(names[l], "+") + "}"
		}
		out = append(out, parts)
	}
	walk(1, 0)
	return out
}

// TestExhaustiveMatchesBruteForce: both solvers return the brute force's
// winner — the earliest most unfair candidate by refAvg — with its labels,
// sizes and workers, and its unfairness bit for bit, over small generated
// populations under binned EMD, L1, KS and Exact, with and without a
// MinPartitionSize guard, serial and parallel. A space over the budget is
// refused by both.
func TestExhaustiveMatchesBruteForce(t *testing.T) {
	const budget = 1000
	modes := []struct {
		name string
		cfg  Config
	}{
		{"emd", Config{}},
		{"l1", Config{Metric: emd.MetricL1}},
		{"ks", Config{Metric: emd.MetricKS}},
		{"exact", Config{Exact: true}},
	}
	compared, refused := 0, 0
	for seed := uint64(1); seed <= 8; seed++ {
		g := testkit.NewGen(seed)
		ds, err := g.WorkerDataset(g.R.IntRange(12, 40))
		if err != nil {
			t.Fatal(err)
		}
		attrs := []int{0}
		if len(ds.Schema().Protected) > 1 {
			attrs = append(attrs, 1)
		}
		for _, mode := range modes {
			for _, minSize := range []int{1, 3} {
				cfg := mode.cfg
				cfg.MinPartitionSize = minSize
				ref := mustEvalFunc(t, ds, cfg)
				for _, alg := range []string{"exhaustive", "exhaustive-cells"} {
					var space [][]*partition.Partition
					if alg == "exhaustive" {
						space = refTrees(ref, partition.Root(ds), attrs)
					} else {
						space = refCells(ref, attrs, budget)
					}
					over := len(space) == 0 || len(space) > budget
					var best []*partition.Partition
					bestU := -1.0
					for _, parts := range space {
						if u := refAvg(ref, parts); u > bestU {
							best, bestU = parts, u
						}
					}
					for _, par := range []int{1, 2} {
						label := fmt.Sprintf("seed %d/%s/min %d/par %d/%s", seed, mode.name, minSize, par, alg)
						cfg.Parallelism = par
						got, err := Run(context.Background(), Spec{Algorithm: alg, Evaluator: mustEvalFunc(t, ds, cfg), Attrs: attrs, Budget: budget})
						if over {
							if err != partition.ErrBudgetExceeded {
								t.Fatalf("%s: space over budget %d, err %v", label, budget, err)
							}
							refused++
							continue
						}
						compared++
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if math.Float64bits(got.Unfairness) != math.Float64bits(bestU) {
							t.Fatalf("%s: unfairness %v, brute force %v", label, got.Unfairness, bestU)
						}
						gp := got.Partitioning.Parts
						if len(gp) != len(best) {
							t.Fatalf("%s: %d parts, brute force %d", label, len(gp), len(best))
						}
						for k := range gp {
							if gl, wl := gp[k].Label(ds.Schema()), best[k].Label(ds.Schema()); gl != wl || !slices.Equal(gp[k].Indices, best[k].Indices) {
								t.Fatalf("%s: part %d is %s %v, brute force %s %v", label, k, gl, gp[k].Indices, wl, best[k].Indices)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d winners compared, %d spaces refused", compared, refused)
	if compared < 200 {
		t.Fatalf("only %d winners compared", compared)
	}
}

// TestExhaustiveOneRepPerPart: the tree space reaches a part by every
// order of its constraints (A then B, B then A) and gives it one rep, so
// the pair-path memo computes at most one distance per pair of distinct
// parts. Exact exhaustive over three attributes computes no more than
// C(k, 2) distances, k the number of distinct constraint sets (Key) among
// its candidates' parts.
func TestExhaustiveOneRepPerPart(t *testing.T) {
	values := [][]string{{"x", "y"}, {"x", "y", "z"}, {"x", "y"}}
	schema := &dataset.Schema{Observed: []dataset.Attribute{dataset.Num("Score", 0, 1, 1)}}
	for a, vs := range values {
		schema.Protected = append(schema.Protected, dataset.Cat("A"+strconv.Itoa(a), vs...))
	}
	r := rng.New(5)
	b := dataset.NewBuilder(schema)
	for i := 0; i < 300; i++ {
		prot := map[string]any{}
		for a, vs := range values {
			prot["A"+strconv.Itoa(a)] = rng.Pick(r, vs)
		}
		b.Add("w"+strconv.Itoa(i), prot, map[string]any{"Score": r.Float64()})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e := mustEval(t, ds, Config{Exact: true})
	all, err := candidates(t, e, "exhaustive", nil, DefaultExhaustiveBudget)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, pt := range all {
		for _, p := range pt.Parts {
			keys[p.Key()] = true
		}
	}
	res, err := Run(context.Background(), Spec{Algorithm: "exhaustive", Evaluator: e})
	if err != nil {
		t.Fatal(err)
	}
	k := len(keys)
	if got, most := res.Stats.PairsComputed, k*(k-1)/2; got > most {
		t.Errorf("computed %d distances over %d distinct parts, want at most %d", got, k, most)
	}
	t.Logf("%d candidates, %d distinct parts, %d distances computed, %d served", len(all), k, res.Stats.PairsComputed, res.Stats.CacheHits)
}
