package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fairrank/internal/dataset"
	"fairrank/internal/partition"
	"fairrank/internal/rng"
)

// quickDataset is randomDataset without a *testing.T, for testing/quick
// properties.
func quickDataset(n int, seed uint64) (*dataset.Dataset, error) {
	r := rng.New(seed)
	b := dataset.NewBuilder(testSchema())
	for i := 0; i < n; i++ {
		b.Add("w", map[string]any{
			"Gender":   rng.Pick(r, []string{"Male", "Female"}),
			"Language": rng.Pick(r, []string{"English", "Indian", "Other"}),
		}, map[string]any{"Score": r.Float64()})
	}
	return b.Build()
}

// TestQuickIncrementalDelta is the property-based gate on the delta
// engine: for random datasets, random split sequences, and random
// configurations (binned and Exact, serial and parallel, with and without
// the min-size guard), the incrementally maintained average of every
// intermediate state — balanced probes, unbalanced groupings, and
// replaceFirst merges — agrees with a from-scratch AvgPairwise evaluation
// of its parts, mapped back to worker rows, to 1e-12.
func TestQuickIncrementalDelta(t *testing.T) {
	prop := func(seed uint64, exact bool, minSize uint8) bool {
		n := 150 + int(seed%150)
		ds, err := quickDataset(n, seed)
		if err != nil {
			return false
		}
		cfg := Config{Bins: 8, Parallelism: 1 + int(seed%4), Exact: exact}
		if minSize%2 == 0 {
			cfg.MinPartitionSize = 2 + int(minSize)%40
		}
		e, err := NewEvaluator(ds, scoreFunc, cfg)
		if err != nil {
			return false
		}
		// Fresh evaluator for the from-scratch side so no cache is shared.
		refEval, err := NewEvaluator(ds, scoreFunc, cfg)
		if err != nil {
			return false
		}
		close := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12 }
		ref := func(s *matState) float64 { return refAvg(refEval, e.rows.workerParts(s.parts)) }

		r := rng.New(seed ^ 0x9E3779B9)
		attrs := e.Attrs()
		r.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })

		// Balanced-style chain: probe each attribute in sequence, checking
		// the running average at every step.
		s := newMatState(e, []*partition.Partition{e.searchRoot()})
		for _, a := range attrs {
			s = s.probe(a, e.cfg.Parallelism, true)
			if !close(s.avg, ref(s)) {
				return false
			}
		}

		// Unbalanced-style delta: from a first split, regroup around a
		// random part, locally split it, and merge against the siblings.
		s = newMatState(e, []*partition.Partition{e.searchRoot()})
		s = s.probe(attrs[0], e.cfg.Parallelism, true)
		if len(s.parts) > 1 && len(attrs) > 1 {
			g := s.group(r.Intn(len(s.parts)))
			if !close(g.avg, ref(g)) {
				return false
			}
			children := g.single(0).probe(attrs[1], e.cfg.Parallelism, true)
			if !close(children.avg, ref(children)) {
				return false
			}
			merged := g.replaceFirst(children)
			if !close(merged.avg, ref(merged)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}
