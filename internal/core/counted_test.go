package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/emd"
	"fairrank/internal/rng"
	"fairrank/internal/testkit"
)

// Tests for count-scored candidates (countAll, built) and for the
// unbalanced recursion's regrouping (group).

// randomStates returns states an evaluator's searches can reach: the root,
// and the states of random chains of up to three scatters from it.
func randomStates(e *Evaluator, r *rng.RNG) []*matState {
	states := []*matState{e.rootState(nil)}
	for chain := 0; chain < 3; chain++ {
		s := e.rootState(nil)
		attrs := e.Attrs()
		r.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
		for _, a := range attrs[:min(len(attrs), 1+chain)] {
			s = s.probe(a, 1)
			states = append(states, s)
		}
	}
	return states
}

// TestCountedSplitMatchesScatter: counting a split and scattering only the
// kept one gives scatterAll's state: the same parts (keys and rows, in
// order, carved apart), the same reps bit for bit, the same average, and
// as many reps built. It runs over random, distinct-cell and single-value
// populations, worker and collapsed rows, a MinPartitionSize guard, and an
// identity metric and a pair-path one.
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
	}
	rows := map[string]func(*Evaluator) *Evaluator{
		"default": func(e *Evaluator) *Evaluator { return e }, "workers": rowScatter, "collapsed": forceCollapse,
	}
	for pi, ds := range pops {
		for ci, cfg := range configs {
			for name, use := range rows {
				e := use(mustEvalFunc(t, ds, cfg))
				e.searchRows()
				r := rng.New(uint64(pi*10 + ci))
				for si, s := range randomStates(e, r) {
					for _, a := range e.Attrs() {
						label := fmt.Sprintf("pop %d/config %d/%s/state %d/attr %d", pi, ci, name, si, a)
						reps0 := e.reps.Load()
						want := s.scatterAll(nil, a)
						want.avg = e.average(nil, want.reps, 1)
						reps1 := e.reps.Load()
						c := s.countAll(nil, a)
						c.avg = e.average(nil, c.reps, 1)
						got := s.counted(c)
						if got.parts != nil {
							t.Fatalf("%s: a counted state holds its parts before it is built", label)
						}
						got = got.built()
						if built := e.reps.Load() - reps1; built != reps1-reps0 {
							t.Fatalf("%s: counted split built %d reps, scatterAll %d", label, built, reps1-reps0)
						}
						if math.Float64bits(got.avg) != math.Float64bits(want.avg) {
							t.Fatalf("%s: average %v, scatterAll %v", label, got.avg, want.avg)
						}
						if len(got.parts) != len(want.parts) || len(got.reps) != len(want.parts) {
							t.Fatalf("%s: %d parts and %d reps, scatterAll %d", label, len(got.parts), len(got.reps), len(want.parts))
						}
						for k, p := range got.parts {
							w := want.parts[k]
							if p.Key() != w.Key() || !slices.Equal(p.Indices, w.Indices) || cap(p.Indices) != len(p.Indices) {
								t.Fatalf("%s: part %d is %s over %v, scatterAll %s over %v", label, k, p.Key(), p.Indices, w.Key(), w.Indices)
							}
							if !equalBits(got.reps[k].data, want.reps[k].data) {
								t.Fatalf("%s: part %d rep %v, scatterAll %v", label, k, got.reps[k].data, want.reps[k].data)
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
