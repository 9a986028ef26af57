package server

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/emd"
	"fairrank/internal/scoring"
	"fairrank/internal/simulate"
)

// TestSearchEndMatchesRunEnd holds the job path, which stops at the row
// space (core.Search, then core.PValue over its part sizes), to the
// worker-list path (core.Run, then core.PValue over the sizes and
// unfairness of Run's partitioning). It covers every algorithm over three
// populations of the paper's schema (in the first every worker is its own
// cell, so binned mode searches worker rows) under nine measurement
// configurations; the exhaustive solvers search Gender × Country ×
// Language (tree space) and Gender × Country (cell space). In each case:
//   - Search's parts equal Run's in constraints, name, size and order;
//   - its unfairness bits, steps and stats equal Run's, and Unfairness of
//     Run's partitioning has the same bits;
//   - the record runAudit stores equals encodeResult of Run's result byte
//     for byte, with no p-value and with workerPValue's over Run's
//     partitioning.
func TestSearchEndMatchesRunEnd(t *testing.T) {
	funcs, err := simulate.RandomFunctions()
	if err != nil {
		t.Fatal(err)
	}
	pops := []struct {
		n    int
		seed uint64
		f    scoring.Func
	}{
		{80, 1, funcs[1]},
		{simulate.SmallPopulation, 42, funcs[0]},
		{simulate.LargePopulation, 42, funcs[3]},
	}
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"emd", core.Config{}},
		{"bins7", core.Config{Bins: 7}},
		{"ground-index", core.Config{Ground: emd.GroundIndex}},
		{"l1", core.Config{Metric: emd.MetricL1}},
		{"tv", core.Config{Metric: emd.MetricTV}},
		{"ks", core.Config{Metric: emd.MetricKS}},
		{"js", core.Config{Metric: emd.MetricJS}},
		{"exact", core.Config{Exact: true}},
		{"min40", core.Config{MinPartitionSize: 40}},
	}
	ctx := context.Background()
	for _, pop := range pops {
		ds, err := simulate.PaperWorkers(pop.n, pop.seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range configs {
			for _, alg := range core.Algorithms() {
				var attrs []int
				switch alg {
				case "exhaustive":
					attrs = []int{0, 1, 3}
				case "exhaustive-cells":
					attrs = []int{0, 1}
				}
				name := fmt.Sprintf("n=%d/%s/%s", pop.n, c.name, alg)
				spec := core.Spec{Algorithm: alg, Dataset: ds, Func: pop.f, Config: c.cfg, Attrs: attrs, Seed: 3}
				run, err := core.Run(ctx, spec)
				if err != nil {
					t.Fatalf("%s: Run: %v", name, err)
				}
				found, err := core.Search(ctx, spec)
				if err != nil {
					t.Fatalf("%s: Search: %v", name, err)
				}
				if found.Partitioning != nil {
					t.Errorf("%s: Search listed workers", name)
				}
				if got, want := len(found.Parts), len(run.Partitioning.Parts); got != want {
					t.Fatalf("%s: Search found %d parts, Run %d", name, got, want)
				}
				for k, p := range run.Partitioning.Parts {
					q := found.Parts[k]
					if !slices.Equal(q.Constraints, p.Constraints) || q.Name != p.Name || q.Size != len(p.Indices) {
						t.Fatalf("%s: part %d is %+v from Search, {%v %q %d} from Run", name, k, q, p.Constraints, p.Name, len(p.Indices))
					}
				}
				if !reflect.DeepEqual(found.Parts, run.Parts) {
					t.Errorf("%s: Search's Parts differ from Run's", name)
				}
				if math.Float64bits(found.Unfairness) != math.Float64bits(run.Unfairness) ||
					!reflect.DeepEqual(found.Steps, run.Steps) || found.Stats != run.Stats {
					t.Errorf("%s: Search gave %v, %d steps, %+v; Run %v, %d steps, %+v", name,
						found.Unfairness, len(found.Steps), found.Stats, run.Unfairness, len(run.Steps), run.Stats)
				}
				e, err := core.NewEvaluator(ds, pop.f, c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if u := e.Unfairness(run.Partitioning); math.Float64bits(u) != math.Float64bits(found.Unfairness) {
					t.Errorf("%s: Unfairness of Run's partitioning is %v, Search's %v", name, u, found.Unfairness)
				}
				for _, rounds := range []int{0, 3} {
					var pValue *float64
					if rounds > 0 {
						p, err := workerPValue(ctx, e, run.Partitioning, rounds, spec.Seed)
						if err != nil {
							t.Fatal(err)
						}
						pValue = &p
					}
					want, err := encodeResult("paper", run, ds.Schema(), pValue)
					if err != nil {
						t.Fatal(err)
					}
					got, err := runAudit(ctx, spec, "paper", rounds, spec.Seed)
					if err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s, %d rounds: runAudit stored %x (%v)\nRun's record %x", name, rounds, got, err, want)
					}
				}
			}
		}
	}
}
