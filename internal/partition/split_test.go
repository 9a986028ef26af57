package partition

import (
	"fmt"
	"slices"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/rng"
)

// appendSplit is Split as it was before children were carved from one
// exactly sized array: every child grows its own slice by append. It is
// kept as the oracle for TestSplitMatchesAppendOracle.
func appendSplit(ds *dataset.Dataset, p *Partition, attr int) []*Partition {
	card := ds.Schema().Protected[attr].Cardinality()
	buckets := make([][]int, card)
	codes := ds.CodeColumn(attr)
	for _, i := range p.Indices {
		c := int(codes[i])
		buckets[c] = append(buckets[c], i)
	}
	var out []*Partition
	for v, idx := range buckets {
		if len(idx) == 0 {
			continue
		}
		cons := make([]Constraint, len(p.Constraints)+1)
		copy(cons, p.Constraints)
		cons[len(cons)-1] = Constraint{Attr: attr, Value: v}
		out = append(out, &Partition{Constraints: cons, Indices: idx})
	}
	return out
}

// splitFixture draws a random schema and population. Attribute
// cardinalities run from 1 (every split is single-valued) to 6, and each
// attribute draws its values from a random subset of its domain, skewed,
// so some values never occur and their children are elided.
func splitFixture(t *testing.T, r *rng.RNG) *dataset.Dataset {
	t.Helper()
	nAttrs := r.IntRange(1, 4)
	schema := &dataset.Schema{Observed: []dataset.Attribute{dataset.Num("Score", 0, 1, 1)}}
	for a := 0; a < nAttrs; a++ {
		vals := make([]string, r.IntRange(1, 6))
		for v := range vals {
			vals[v] = fmt.Sprintf("v%d", v)
		}
		schema.Protected = append(schema.Protected, dataset.Cat(fmt.Sprintf("P%d", a), vals...))
	}
	// used[a] is the subset of attribute a's values the population draws
	// from, listed with repeats so earlier picks are likelier.
	used := make([][]string, nAttrs)
	for a, attr := range schema.Protected {
		for _, v := range attr.Values {
			if r.Intn(3) > 0 {
				used[a] = append(used[a], v, v, v)
			}
		}
		used[a] = append(used[a], attr.Values[r.Intn(len(attr.Values))])
	}
	n := r.IntRange(1, 400)
	b := dataset.NewBuilder(schema)
	for i := 0; i < n; i++ {
		prot := map[string]any{}
		for a, attr := range schema.Protected {
			prot[attr.Name] = rng.Pick(r, used[a])
		}
		b.Add(fmt.Sprintf("w%d", i), prot, map[string]any{"Score": r.Float64()})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// sameChildren fails unless got and want are the same children: same
// constraints and the same rows in the same order.
func sameChildren(t *testing.T, label string, got, want []*Partition) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d children, oracle has %d", label, len(got), len(want))
	}
	for c := range want {
		if !slices.Equal(got[c].Constraints, want[c].Constraints) {
			t.Fatalf("%s: child %d constraints %v, oracle %v", label, c, got[c].Constraints, want[c].Constraints)
		}
		if !slices.Equal(got[c].Indices, want[c].Indices) {
			t.Fatalf("%s: child %d rows %v, oracle %v", label, c, got[c].Indices, want[c].Indices)
		}
	}
}

// TestSplitMatchesAppendOracle: over random populations, split trees
// grown the way the engine grows them — every part split on the next
// attribute, a split kept whole when a child falls below a minimum
// partition size — Split returns the oracle's children, in the oracle's
// order. Parents deep in the tree are themselves carved sub-slices, so
// each level also splits views of a shared array. An append to one child
// never shows in a sibling or in the parent.
func TestSplitMatchesAppendOracle(t *testing.T) {
	r := rng.New(41)
	for round := 0; round < 150; round++ {
		ds := splitFixture(t, r)
		attrs := r.Perm(len(ds.Schema().Protected))
		minSize := []int{1, 1, 2, 3, 8}[r.Intn(5)]
		parts := []*Partition{Root(ds)}
		if r.Intn(2) == 0 {
			// A parent whose rows are out of order and not the whole
			// population.
			rows := r.Perm(ds.N())
			parts = []*Partition{{Indices: rows[:r.IntRange(1, ds.N())]}}
		}
		for depth, attr := range attrs {
			var next []*Partition
			for pi, p := range parts {
				label := fmt.Sprintf("round %d depth %d part %d attr %d", round, depth, pi, attr)
				got := Split(ds, p, attr)
				want := appendSplit(ds, p, attr)
				sameChildren(t, label, got, want)

				// Append to one child: siblings and the parent keep
				// their rows.
				parentRows := slices.Clone(p.Indices)
				victim := got[r.Intn(len(got))]
				grown := append(victim.Indices, -1, -2)
				if grown[len(grown)-1] != -2 {
					t.Fatalf("%s: append lost its rows", label)
				}
				sameChildren(t, label+" after append", got, want)
				if !slices.Equal(p.Indices, parentRows) {
					t.Fatalf("%s: append to a child changed the parent", label)
				}

				keepWhole := false
				for _, c := range got {
					keepWhole = keepWhole || c.Size() < minSize
				}
				if keepWhole {
					next = append(next, p)
				} else {
					next = append(next, got...)
				}
			}
			parts = next
		}
	}
}
