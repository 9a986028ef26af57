package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/emd"
	"fairrank/internal/partition"
	"fairrank/internal/rng"
	"fairrank/internal/testkit"
)

// Tests for counted splits (countAll, built) and for the unbalanced
// recursion's regrouping (group).

// randomStates returns states an evaluator's searches can reach: the root,
// and the states of random chains of up to three splits from it.
func randomStates(e *Evaluator, r *rng.RNG) []*matState {
	states := []*matState{e.rootState(nil)}
	for chain := 0; chain < 3; chain++ {
		s := e.rootState(nil)
		attrs := e.Attrs()
		r.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
		for _, a := range attrs[:min(len(attrs), 1+chain)] {
			s = s.probe(nil, a, 1).built()
			states = append(states, s)
		}
	}
	return states
}

// TestCountedSplitMatchesScatter: a probe's counted split, built, is the
// worker-row reference's split of the state's parts (splitAll, refData,
// refAvg): the same parts (keys and worker rows, in order, each carved
// apart in the row space), the same reps bit for bit, the same average,
// and one new rep for each child of a part the split changes, none for a
// part that keeps its content. It runs over random, distinct-cell and
// single-value populations, worker and collapsed rows, a MinPartitionSize
// guard, an identity metric, pair-path ones and Exact mode.
func TestCountedSplitMatchesScatter(t *testing.T) {
	var pops []*dataset.Dataset
	for seed := uint64(1); seed <= 3; seed++ {
		g := testkit.NewGen(seed)
		ds, err := g.WorkerDataset(g.R.IntRange(60, 400))
		if err != nil {
			t.Fatal(err)
		}
		pops = append(pops, ds)
	}
	pops = append(pops, distinctCellDataset(t, 300), constAttrDataset(t, 250, 5))
	configs := []Config{
		{Bins: 10, Parallelism: 1},
		{Bins: 3, Parallelism: 1, MinPartitionSize: 12},
		{Bins: 10, Parallelism: 1, Metric: emd.MetricL1},
		{Bins: 10, Parallelism: 1, Metric: emd.MetricKS},
		{Exact: true, Parallelism: 1, MinPartitionSize: 5},
	}
	rows := map[string]func(*Evaluator) *Evaluator{
		"default": func(e *Evaluator) *Evaluator { return e }, "workers": rowScatter, "collapsed": forceCollapse,
	}
	for pi, ds := range pops {
		for ci, cfg := range configs {
			for name, use := range rows {
				if cfg.Exact && name == "collapsed" {
					continue // Exact mode's rows are the workers
				}
				e := use(mustEvalFunc(t, ds, cfg))
				e.searchRows()
				r := rng.New(uint64(pi*10 + ci))
				for si, s := range randomStates(e, r) {
					for _, a := range e.Attrs() {
						label := fmt.Sprintf("pop %d/config %d/%s/state %d/attr %d", pi, ci, name, si, a)
						parents := e.workerParts(s.parts)
						want := e.splitAll(parents, a)
						fresh := 0
						for _, p := range parents {
							if kids := e.splitAll([]*partition.Partition{p}, a); len(kids) > 1 {
								fresh += len(kids)
							}
						}
						reps0 := e.reps.Load()
						got := s.probe(nil, a, 1)
						if got.parts != nil {
							t.Fatalf("%s: a counted state holds its parts before it is built", label)
						}
						got = got.built()
						if built := int(e.reps.Load() - reps0); built != fresh {
							t.Fatalf("%s: counted split built %d reps, the reference split has %d new parts", label, built, fresh)
						}
						if ref := refAvg(e, want); math.Float64bits(got.avg) != math.Float64bits(ref) {
							t.Fatalf("%s: average %v, reference %v", label, got.avg, ref)
						}
						if len(got.parts) != len(want) || len(got.reps) != len(want) {
							t.Fatalf("%s: %d parts and %d reps, reference %d", label, len(got.parts), len(got.reps), len(want))
						}
						workers := e.workerParts(got.parts)
						for k, p := range got.parts {
							w := want[k]
							if p.Key() != w.Key() || !slices.Equal(workers[k].Indices, w.Indices) || cap(p.Indices) != len(p.Indices) {
								t.Fatalf("%s: part %d is %s over %v, reference %s over %v", label, k, p.Key(), workers[k].Indices, w.Key(), w.Indices)
							}
							if ref := refData(e, w); !equalBits(got.reps[k].data, ref) {
								t.Fatalf("%s: part %d rep %v, reference %v", label, k, got.reps[k].data, ref)
							}
						}
					}
				}
			}
		}
	}
}

// TestGroupKeepsAverage: under the exact identity a regrouped state's
// average is its state's own, bit for bit, and equals a fresh average of
// the reordered reps; on the pair path (KS, Exact mode), whose sum follows
// pair order, group averages the reordered reps afresh.
func TestGroupKeepsAverage(t *testing.T) {
	configs := []Config{
		{Bins: 10, Parallelism: 1},
		{Bins: 7, Parallelism: 2, Ground: emd.GroundIndex},
		{Bins: 10, Parallelism: 1, Metric: emd.MetricTV},
		{Bins: 10, Parallelism: 2, Metric: emd.MetricKS},
		{Exact: true, Parallelism: 1},
	}
	for seed := uint64(1); seed <= 4; seed++ {
		g := testkit.NewGen(seed)
		ds, err := g.WorkerDataset(g.R.IntRange(80, 500))
		if err != nil {
			t.Fatal(err)
		}
		for ci, cfg := range configs {
			e := mustEvalFunc(t, ds, cfg)
			for si, s := range randomStates(e, rng.New(seed)) {
				for x := range s.parts {
					label := fmt.Sprintf("seed %d/config %d/state %d/part %d", seed, ci, si, x)
					gs := s.group(x)
					fresh := e.average(nil, gs.reps, 1)
					if math.Float64bits(gs.avg) != math.Float64bits(fresh) {
						t.Fatalf("%s: group average %v, a fresh average %v", label, gs.avg, fresh)
					}
					if e.ident && math.Float64bits(gs.avg) != math.Float64bits(s.avg) {
						t.Fatalf("%s: group average %v, the state's %v", label, gs.avg, s.avg)
					}
					if gs.parts[0] != s.parts[x] || gs.reps[0] != s.reps[x] || len(gs.parts) != len(s.parts) {
						t.Fatalf("%s: group does not lead with part %d", label, x)
					}
				}
			}
		}
	}
}
