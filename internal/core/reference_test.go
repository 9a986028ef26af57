package core

import (
	"sort"
	"testing"

	"fairrank/internal/histogram"
	"fairrank/internal/partition"
	"fairrank/internal/rng"
)

// This file pins the search engine to straight-line reference
// implementations that re-evaluate every partitioning from scratch — the
// shape of the pre-engine code: worker rows, every payload rebuilt from a
// histogram, every partitioning averaged through the engine's one average
// (average.go). The engine must return *bit-identical* unfairness values
// and identical traces: its row collapse, rep interning and scatter
// splits only change how payloads are built, never their values.

// refData builds a partition's comparison payload from scratch: the
// binned payload of its histogram's counts, the sorted score sample in
// Exact mode.
func refData(e *Evaluator, p *partition.Partition) []float64 {
	if e.cfg.Exact {
		s := make([]float64, len(p.Indices))
		for k, i := range p.Indices {
			s[k] = e.Scores()[i]
		}
		sort.Float64s(s)
		return s
	}
	h := histogram.MustNew(e.cfg.Bins, 0, 1)
	for _, i := range p.Indices {
		h.Add(e.Scores()[i])
	}
	return e.payload(h.Counts())
}

// refAvg is the from-scratch average pairwise distance: every payload
// rebuilt and averaged serially through the engine's one average.
func refAvg(e *Evaluator, parts []*partition.Partition) float64 {
	reps := make([]*rep, len(parts))
	for i, p := range parts {
		reps[i] = &rep{data: refData(e, p)}
	}
	return e.average(nil, reps, 1)
}

// splitAll splits every partition on attr, subject to MinPartitionSize:
// a partition whose split would create a child smaller than the minimum is
// kept whole instead.
func (e *Evaluator) splitAll(parts []*partition.Partition, attr int) []*partition.Partition {
	if e.cfg.MinPartitionSize <= 1 {
		return partition.SplitAll(e.ds, parts, attr)
	}
	var out []*partition.Partition
	for _, p := range parts {
		children := partition.Split(e.ds, p, attr)
		ok := true
		for _, c := range children {
			if c.Size() < e.cfg.MinPartitionSize {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, children...)
		} else {
			out = append(out, p)
		}
	}
	return out
}

type refChooser func(e *Evaluator, parts []*partition.Partition, attrs []int) (int, []*partition.Partition, float64)

func refWorst(e *Evaluator, parts []*partition.Partition, attrs []int) (int, []*partition.Partition, float64) {
	bestAttr := -1
	var bestChildren []*partition.Partition
	bestAvg := -1.0
	for _, a := range attrs {
		children := e.splitAll(parts, a)
		avg := refAvg(e, children)
		if avg > bestAvg {
			bestAttr, bestChildren, bestAvg = a, children, avg
		}
	}
	return bestAttr, bestChildren, bestAvg
}

func refRandom(r *rng.RNG) refChooser {
	return func(e *Evaluator, parts []*partition.Partition, attrs []int) (int, []*partition.Partition, float64) {
		a := attrs[r.Intn(len(attrs))]
		children := e.splitAll(parts, a)
		return a, children, refAvg(e, children)
	}
}

func refBalanced(e *Evaluator, attrs []int, choose refChooser) *Result {
	res := &Result{}
	current := []*partition.Partition{partition.Root(e.ds)}
	if len(attrs) == 0 {
		res.Partitioning = &partition.Partitioning{Parts: current}
		return res
	}
	a, children, avg := choose(e, current, attrs)
	attrs = remove(attrs, a)
	current, currentAvg := children, avg
	res.Steps = append(res.Steps, TraceStep{Attribute: a, AvgDistance: avg, Partitions: len(children), Accepted: true})
	for len(attrs) > 0 {
		a, children, avg := choose(e, current, attrs)
		attrs = remove(attrs, a)
		step := TraceStep{Attribute: a, AvgDistance: avg, Partitions: len(children)}
		if currentAvg >= avg {
			res.Steps = append(res.Steps, step)
			break
		}
		step.Accepted = true
		res.Steps = append(res.Steps, step)
		current, currentAvg = children, avg
	}
	res.Partitioning = &partition.Partitioning{Parts: current}
	res.Unfairness = currentAvg
	return res
}

func refUnbalanced(e *Evaluator, attrs []int, choose refChooser) *Result {
	res := &Result{}
	root := partition.Root(e.ds)
	if len(attrs) == 0 {
		res.Partitioning = &partition.Partitioning{Parts: []*partition.Partition{root}}
		return res
	}
	a, parts, avg := choose(e, []*partition.Partition{root}, attrs)
	rest := remove(attrs, a)
	res.Steps = append(res.Steps, TraceStep{Attribute: a, AvgDistance: avg, Partitions: len(parts), Accepted: true})
	var output []*partition.Partition
	var recurse func(current *partition.Partition, siblings []*partition.Partition, attrs []int)
	recurse = func(current *partition.Partition, siblings []*partition.Partition, attrs []int) {
		if len(attrs) == 0 {
			output = append(output, current)
			return
		}
		group := append([]*partition.Partition{current}, siblings...)
		currentAvg := refAvg(e, group)
		a, children, _ := choose(e, []*partition.Partition{current}, attrs)
		rest := remove(attrs, a)
		childrenAvg := refAvg(e, append(append([]*partition.Partition{}, children...), siblings...))
		step := TraceStep{Attribute: a, AvgDistance: childrenAvg, Partitions: len(children)}
		if currentAvg >= childrenAvg {
			res.Steps = append(res.Steps, step)
			output = append(output, current)
			return
		}
		step.Accepted = true
		res.Steps = append(res.Steps, step)
		for k, p := range children {
			others := make([]*partition.Partition, 0, len(children)-1)
			others = append(others, children[:k]...)
			others = append(others, children[k+1:]...)
			recurse(p, others, rest)
		}
	}
	for k, p := range parts {
		others := make([]*partition.Partition, 0, len(parts)-1)
		others = append(others, parts[:k]...)
		others = append(others, parts[k+1:]...)
		recurse(p, others, rest)
	}
	res.Partitioning = &partition.Partitioning{Parts: output}
	res.Unfairness = refAvg(e, output)
	return res
}

func refAllAttributes(e *Evaluator, attrs []int) *Result {
	parts := []*partition.Partition{partition.Root(e.ds)}
	res := &Result{}
	for _, a := range attrs {
		parts = e.splitAll(parts, a)
		res.Steps = append(res.Steps, TraceStep{Attribute: a, Partitions: len(parts), Accepted: true})
	}
	res.Partitioning = &partition.Partitioning{Parts: parts}
	res.Unfairness = refAvg(e, parts)
	if len(res.Steps) > 0 {
		res.Steps[len(res.Steps)-1].AvgDistance = res.Unfairness
	}
	return res
}

func refBeam(e *Evaluator, attrs []int, width int) *Result {
	type state struct {
		parts []*partition.Partition
		avg   float64
		left  []int
	}
	res := &Result{}
	frontier := []state{{parts: []*partition.Partition{partition.Root(e.ds)}, left: attrs}}
	best := frontier[0]
	for {
		var next []state
		for _, s := range frontier {
			for _, a := range s.left {
				children := e.splitAll(s.parts, a)
				next = append(next, state{parts: children, avg: refAvg(e, children), left: remove(s.left, a)})
			}
		}
		if len(next) == 0 {
			break
		}
		sort.Slice(next, func(i, j int) bool { return next[i].avg > next[j].avg })
		if len(next) > width {
			next = next[:width]
		}
		improved := false
		for _, s := range next {
			if s.avg > best.avg {
				best = s
				improved = true
			}
		}
		res.Steps = append(res.Steps, TraceStep{Attribute: -1, AvgDistance: next[0].avg, Partitions: len(next[0].parts), Accepted: improved})
		if !improved {
			break
		}
		frontier = next
	}
	res.Partitioning = &partition.Partitioning{Parts: best.parts}
	res.Unfairness = best.avg
	return res
}

func partKeys(pt *partition.Partitioning) []string {
	out := make([]string, len(pt.Parts))
	for i, p := range pt.Parts {
		out[i] = p.Key()
	}
	return out
}

func compareResults(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Unfairness != want.Unfairness {
		t.Errorf("%s: Unfairness = %v, reference %v (must be bit-identical)", name, got.Unfairness, want.Unfairness)
	}
	gk, wk := partKeys(got.Partitioning), partKeys(want.Partitioning)
	if len(gk) != len(wk) {
		t.Fatalf("%s: %d parts, reference %d", name, len(gk), len(wk))
	}
	for i := range gk {
		if gk[i] != wk[i] {
			t.Errorf("%s: part[%d] = %q, reference %q", name, i, gk[i], wk[i])
		}
	}
	if len(got.Steps) != len(want.Steps) {
		t.Fatalf("%s: %d steps, reference %d", name, len(got.Steps), len(want.Steps))
	}
	for i := range got.Steps {
		g, w := got.Steps[i], want.Steps[i]
		if g.Attribute != w.Attribute || g.Partitions != w.Partitions || g.Accepted != w.Accepted || g.AvgDistance != w.AvgDistance {
			t.Errorf("%s: step[%d] = %+v, reference %+v", name, i, g, w)
		}
	}
}

// TestEngineMatchesReference is the engine's equivalence gate: every
// algorithm, on several datasets and configurations (binned and Exact,
// min-size guard on and off, serial and parallel), must reproduce the
// from-scratch reference bit for bit — values, partitions, and traces.
func TestEngineMatchesReference(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"binned-serial", Config{Bins: 10, Parallelism: 1}},
		{"binned-parallel", Config{Bins: 10, Parallelism: 4}},
		{"binned-minsize", Config{Bins: 10, Parallelism: 2, MinPartitionSize: 40}},
		{"exact-serial", Config{Exact: true, Parallelism: 1}},
		{"exact-parallel", Config{Exact: true, Parallelism: 4}},
	}
	for _, tc := range configs {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				ds := randomDataset(t, 300, seed)
				run := func(name string, engine func(e *Evaluator) *Result, ref func(e *Evaluator) *Result) {
					e := mustEval(t, ds, tc.cfg)
					re := mustEval(t, ds, tc.cfg)
					compareResults(t, name, engine(e), ref(re))
				}
				run("balanced", func(e *Evaluator) *Result { return Balanced(e, nil) },
					func(e *Evaluator) *Result { return refBalanced(e, e.Attrs(), refWorst) })
				run("unbalanced", func(e *Evaluator) *Result { return Unbalanced(e, nil) },
					func(e *Evaluator) *Result { return refUnbalanced(e, e.Attrs(), refWorst) })
				run("r-balanced", func(e *Evaluator) *Result { return RBalanced(e, nil, rng.New(seed)) },
					func(e *Evaluator) *Result { return refBalanced(e, e.Attrs(), refRandom(rng.New(seed))) })
				run("r-unbalanced", func(e *Evaluator) *Result { return RUnbalanced(e, nil, rng.New(seed)) },
					func(e *Evaluator) *Result { return refUnbalanced(e, e.Attrs(), refRandom(rng.New(seed))) })
				run("all-attributes", func(e *Evaluator) *Result { return AllAttributes(e, nil) },
					func(e *Evaluator) *Result { return refAllAttributes(e, e.Attrs()) })
				run("beam", func(e *Evaluator) *Result { r, _ := Beam(e, nil, 2); return r },
					func(e *Evaluator) *Result { return refBeam(e, e.Attrs(), 2) })
			}
		})
	}
}
