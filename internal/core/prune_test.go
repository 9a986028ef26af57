package core

import (
	"context"
	"fmt"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/emd"
	"fairrank/internal/rng"
	"fairrank/internal/telemetry"
	"fairrank/internal/testkit"
)

// Tests for the branch-and-bound pruning cascade: the differential
// pruned≡unpruned oracle across every registered algorithm, the pair-slot
// conservation law, and the mode gate. The cascade runs by mode (binned
// histograms under MetricEMD), so the unpruned side of every differential
// comes from the unexported switch (unprune). The equivalence checks
// compare exact floats and full traces — the contract is bit-identical,
// not approximately equal.

// unprune turns the evaluator's pruning cascade off: the greedy choosers
// fall back to the unpruned worstAttribute scan, and the exhaustive
// solvers and terminal averages skip their bound paths. Call it before the
// evaluator's first run.
func unprune(e *Evaluator) *Evaluator {
	e.prune = false
	e.reps.quant = nil
	return e
}

// pruneSpec returns spec bound to a fresh evaluator (never sharing caches
// with the paired run) with the pruning cascade on — the default — or off.
func pruneSpec(t *testing.T, spec Spec, on bool) Spec {
	t.Helper()
	e, err := NewEvaluator(spec.Dataset, spec.Func, spec.Config)
	if err != nil {
		t.Fatal(err)
	}
	if !on {
		unprune(e)
	}
	spec.Evaluator = e
	return spec
}

// pruneDigest is the full observable outcome of one run, compared deeply
// across the prune on/off pair.
type pruneDigest struct {
	Unfairness float64
	Steps      []TraceStep
	Parts      []string
	Err        string
}

// digestRun executes spec and digests the result.
func digestRun(t *testing.T, spec Spec) pruneDigest {
	t.Helper()
	res, err := Run(context.Background(), spec)
	if err != nil {
		return pruneDigest{Err: err.Error()}
	}
	d := pruneDigest{Unfairness: res.Unfairness, Steps: res.Steps}
	if res.Partitioning != nil {
		for _, p := range res.Partitioning.Parts {
			d.Parts = append(d.Parts, p.Key())
		}
	}
	return d
}

// pruneDataset builds a population whose score depends on every protected
// attribute with distinct weights, so greedy splits keep paying off, the
// scans go deep enough to cross pruneKernelMinParts, and the candidate
// averages separate cleanly — the regime the cascade is built for.
func pruneDataset(t *testing.T, n, nAttrs int) *dataset.Dataset {
	t.Helper()
	vals := []string{"a", "b", "c", "d"}
	prot := make([]dataset.Attribute, nAttrs)
	weights := make([]float64, nAttrs)
	totalW := 0.0
	for a := range prot {
		prot[a] = dataset.Cat(fmt.Sprintf("A%d", a), vals...)
		// Near-equal weights keep every split paying off (the average
		// pairwise distance rises as long as each attribute's effect is
		// comparable), while the slight taper separates the candidate
		// averages so the argmax is unambiguous.
		weights[a] = 1 - 0.06*float64(a)
		totalW += weights[a]
	}
	schema := &dataset.Schema{
		Protected: prot,
		Observed:  []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
	b := dataset.NewBuilder(schema)
	r := rng.New(99)
	for i := 0; i < n; i++ {
		pv := map[string]any{}
		score := 0.0
		for a := range prot {
			v := r.Intn(len(vals))
			pv[prot[a].Name] = vals[v]
			score += weights[a] / totalW * float64(v) / float64(len(vals)-1)
		}
		score = 0.92*score + 0.08*r.Float64()
		b.Add(fmt.Sprintf("w%d", i), pv, map[string]any{"Score": score})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatalf("pruneDataset: %v", err)
	}
	return ds
}

// wideDataset builds two card-6 attributes over n workers: full splits
// reach 36 parts, past exhaustiveBoundMinParts, so the exhaustive solvers'
// branch-and-bound path runs on realistically sized candidates while the
// tree space (129 candidates) stays enumerable.
func wideDataset(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	schema := &dataset.Schema{
		Protected: []dataset.Attribute{
			dataset.Num("A0", 0, 100, 6),
			dataset.Num("A1", 0, 100, 6),
		},
		Observed: []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
	b := dataset.NewBuilder(schema)
	r := rng.New(7)
	for i := 0; i < n; i++ {
		v0, v1 := r.FloatRange(0, 100), r.FloatRange(0, 100)
		score := 0.6*v0/100 + 0.25*v1/100 + 0.15*r.Float64()
		b.Add(fmt.Sprintf("w%d", i), map[string]any{"A0": v0, "A1": v1}, map[string]any{"Score": score})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatalf("wideDataset: %v", err)
	}
	return ds
}

// The differential oracle: every registered algorithm, run pruned and
// unpruned on generated datasets, must produce bit-identical results —
// unfairness, full trace, and the partitioning itself.
func TestPrunedEquivalenceAllAlgorithms(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		g := testkit.NewGen(seed)
		ds, err := g.WorkerDataset(g.R.IntRange(40, 250))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		nAttrs := len(ds.Schema().Protected)
		testkit.CheckVariantEquivalence(t, "prune", Algorithms(), func(name string, on bool) any {
			spec := Spec{
				Algorithm: name,
				Dataset:   ds,
				Func:      testkit.ScoreFunc(),
				Config:    Config{Bins: 10},
				Seed:      seed,
			}
			if name == "exhaustive" || name == "exhaustive-cells" {
				// Bound the enumeration: tree spaces over >2 attributes and
				// cell-grouping spaces are astronomically large; both variants
				// must then fail identically with the budget error.
				attrs := nAttrs
				if attrs > 2 {
					attrs = 2
				}
				spec.Attrs = make([]int, attrs)
				for i := range spec.Attrs {
					spec.Attrs[i] = i
				}
				spec.Budget = 500
			}
			return digestRun(t, pruneSpec(t, spec, on))
		})
	}
}

// The cascade must actually fire on a deep greedy search — and stay
// bit-identical while doing so. This pins the perf mechanism's existence,
// not just its safety: a cascade that never prunes would pass every
// equivalence test.
func TestPruneFiresOnDeepScan(t *testing.T) {
	ds := pruneDataset(t, 2000, 5)
	for _, alg := range []string{"balanced", "unbalanced"} {
		run := func(on bool) (*Result, error) {
			return Run(context.Background(), pruneSpec(t, Spec{
				Algorithm: alg,
				Dataset:   ds,
				Func:      testkit.ScoreFunc(),
				Config:    Config{Bins: 10},
			}, on))
		}
		base, err := run(false)
		if err != nil {
			t.Fatalf("%s unpruned: %v", alg, err)
		}
		pruned, err := run(true)
		if err != nil {
			t.Fatalf("%s pruned: %v", alg, err)
		}
		if base.Unfairness != pruned.Unfairness {
			t.Fatalf("%s: unfairness %v (unpruned) vs %v (pruned)", alg, base.Unfairness, pruned.Unfairness)
		}
		if len(base.Steps) != len(pruned.Steps) {
			t.Fatalf("%s: %d steps unpruned vs %d pruned", alg, len(base.Steps), len(pruned.Steps))
		}
		for i := range base.Steps {
			if base.Steps[i] != pruned.Steps[i] {
				t.Fatalf("%s step %d: %+v vs %+v", alg, i, base.Steps[i], pruned.Steps[i])
			}
		}
		if base.Stats.PairsPruned != 0 {
			t.Fatalf("%s: unpruned run reported %d pruned pairs", alg, base.Stats.PairsPruned)
		}
		// Candidate-scan pruning only applies to multi-part scans: balanced
		// scans the whole frontier (nk grows past pruneKernelMinParts), while
		// unbalanced always probes one part at a time (nk ≤ cardinality) and
		// gains from the lean fill and cache bypass instead.
		if alg == "balanced" {
			if pruned.Stats.PairsPruned == 0 {
				t.Fatalf("%s: pruning never fired (computed=%d) — dataset or thresholds regressed", alg, pruned.Stats.PairsComputed)
			}
			if pruned.Stats.PairsComputed >= base.Stats.PairsComputed {
				t.Fatalf("%s: pruned run computed %d pairs, unpruned %d — no work saved", alg, pruned.Stats.PairsComputed, base.Stats.PairsComputed)
			}
		}
	}
}

// The exhaustive solvers' branch-and-bound must also fire and stay exact
// on candidates past exhaustiveBoundMinParts.
func TestPruneExhaustiveBranchAndBound(t *testing.T) {
	ds := wideDataset(t, 900)
	run := func(on bool) *Result {
		res, err := Run(context.Background(), pruneSpec(t, Spec{
			Algorithm: "exhaustive",
			Dataset:   ds,
			Func:      testkit.ScoreFunc(),
			Config:    Config{Bins: 10},
		}, on))
		if err != nil {
			t.Fatalf("exhaustive (prune=%v): %v", on, err)
		}
		return res
	}
	base, pruned := run(false), run(true)
	if base.Unfairness != pruned.Unfairness {
		t.Fatalf("unfairness %v vs %v", base.Unfairness, pruned.Unfairness)
	}
	if len(base.Partitioning.Parts) != len(pruned.Partitioning.Parts) {
		t.Fatalf("winner has %d parts unpruned vs %d pruned", len(base.Partitioning.Parts), len(pruned.Partitioning.Parts))
	}
	for i := range base.Partitioning.Parts {
		if base.Partitioning.Parts[i].Key() != pruned.Partitioning.Parts[i].Key() {
			t.Fatalf("winner part %d differs: %s vs %s", i, base.Partitioning.Parts[i].Key(), pruned.Partitioning.Parts[i].Key())
		}
	}
	if pruned.Stats.PairsPruned == 0 {
		t.Fatal("exhaustive branch-and-bound never fired on 36-part candidates")
	}
}

// The slot conservation law: every pair slot a run touches is exactly one
// of computed, cache hit, copied, or pruned — so the four-bucket sum is
// invariant across pruning on/off for the same spec. Checked both through
// RunStats and through the telemetry registry, which must mirror the
// stats exactly.
func TestPruneSlotConservation(t *testing.T) {
	ds := pruneDataset(t, 1200, 4)
	for _, alg := range []string{"balanced", "unbalanced", "r-balanced", "r-unbalanced", "all-attributes"} {
		var sums [2]int
		for i, on := range []bool{false, true} {
			reg := telemetry.NewRegistry()
			res, err := Run(context.Background(), pruneSpec(t, Spec{
				Algorithm: alg,
				Dataset:   ds,
				Func:      testkit.ScoreFunc(),
				Config:    Config{Bins: 10, Metrics: reg},
				Seed:      3,
			}, on))
			if err != nil {
				t.Fatalf("%s (prune=%v): %v", alg, on, err)
			}
			s := res.Stats
			sums[i] = s.PairsComputed + s.CacheHits + s.PairsCopied + s.PairsPruned
			snap := reg.Snapshot()
			// Fresh evaluator and registry per run, so run deltas and
			// counter totals coincide.
			for metric, want := range map[string]int{
				MetricEMDEvaluations: s.PairsComputed,
				MetricPairCacheHits:  s.CacheHits,
				MetricPairsCopied:    s.PairsCopied,
				MetricPairsPruned:    s.PairsPruned,
			} {
				if got := snap.Counters[metric]; got != int64(want) {
					t.Fatalf("%s (prune=%v): %s = %d, RunStats says %d", alg, on, metric, got, want)
				}
			}
			if on && s.PairsPruned > 0 {
				if snap.Counters[MetricBoundProbes] == 0 {
					t.Fatalf("%s: pairs pruned without any bound probes", alg)
				}
			}
		}
		if sums[0] != sums[1] {
			t.Fatalf("%s: slot total %d unpruned vs %d pruned — conservation violated", alg, sums[0], sums[1])
		}
	}
}

// unfairnessBounded's skip contract, pinned directly: a candidate bounded
// under an unbeatable best is skipped with its full slot count pruned; the
// same candidate against a losing best evaluates to the exact unfairness.
func TestUnfairnessBoundedContract(t *testing.T) {
	ds := wideDataset(t, 600)
	e, err := NewEvaluator(ds, testkit.ScoreFunc(), Config{Bins: 10})
	if err != nil {
		t.Fatal(err)
	}
	res := AllAttributes(e, nil) // the 36-part full split
	pt := res.Partitioning
	k := len(pt.Parts)
	if k < exhaustiveBoundMinParts {
		t.Fatalf("full split has only %d parts, below the bound threshold", k)
	}
	exact := e.Unfairness(pt)
	ctx := context.Background()

	u, skipped := e.unfairnessBounded(ctx, pt, -1)
	if skipped {
		t.Fatal("candidate skipped against best=-1")
	}
	if u != exact {
		t.Fatalf("bounded evaluation %v != exact %v", u, exact)
	}

	before := e.pruned.Load()
	if _, skipped := e.unfairnessBounded(ctx, pt, exact+1); !skipped {
		t.Fatal("candidate not skipped against an unbeatable best")
	}
	if got, want := e.pruned.Load()-before, int64(k)*int64(k-1)/2; got != want {
		t.Fatalf("skip pruned %d slots, want %d", got, want)
	}
}

// The mode gate: the cascade runs exactly where its bound kernels apply —
// binned histograms under MetricEMD, whatever the ground distance — and
// nowhere else, with no option to turn it on or off.
func TestPruneGate(t *testing.T) {
	g := testkit.NewGen(5)
	ds, err := g.WorkerDataset(60)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		want bool
	}{
		{"default-binned-emd", Config{}, true},
		{"index-ground", Config{Ground: emd.GroundIndex}, true},
		{"exact-mode", Config{Exact: true}, false},
		{"non-emd-metric", Config{Metric: emd.MetricL1}, false},
	}
	for _, c := range cases {
		e, err := NewEvaluator(ds, testkit.ScoreFunc(), c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if e.prune != c.want {
			t.Fatalf("%s: prune gate = %v, want %v", c.name, e.prune, c.want)
		}
		if got := e.reps.quant != nil; got != c.want {
			t.Fatalf("%s: quantizer installed = %v, want %v", c.name, got, c.want)
		}
	}
}
