package dataset

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// checkCells holds a grouping to its contract against a map-keyed oracle:
// one cell per distinct code tuple, each listing exactly the workers that
// carry it in ascending order, with Of and Codes consistent.
func checkCells(t *testing.T, ds *Dataset, c *Cells) {
	t.Helper()
	tuple := func(i int) string {
		key := ""
		for a := range ds.Schema().Protected {
			key += fmt.Sprintf("%d,", ds.Code(a, i))
		}
		return key
	}
	want := map[string][]int{}
	for i := 0; i < ds.N(); i++ {
		want[tuple(i)] = append(want[tuple(i)], i)
	}
	if c.N() != len(want) {
		t.Fatalf("%d cells, want %d distinct code tuples", c.N(), len(want))
	}
	if len(c.Of) != ds.N() || len(c.Rows) != ds.N() || int(c.Start[c.N()]) != ds.N() {
		t.Fatalf("Of/Rows/Start cover %d/%d/%d workers, want %d", len(c.Of), len(c.Rows), c.Start[c.N()], ds.N())
	}
	seen := map[string]bool{}
	for cell := 0; cell < c.N(); cell++ {
		rows := c.Rows[c.Start[cell]:c.Start[cell+1]]
		if len(rows) == 0 {
			t.Fatalf("cell %d is empty", cell)
		}
		key := tuple(int(rows[0]))
		if seen[key] {
			t.Fatalf("cell %d repeats tuple %s", cell, key)
		}
		seen[key] = true
		if fmt.Sprint(rows) != fmt.Sprint(want[key]) {
			t.Fatalf("cell %d (%s) holds %v, want %v", cell, key, rows, want[key])
		}
		for _, i := range rows {
			if int(c.Of[i]) != cell {
				t.Fatalf("worker %d listed in cell %d but Of says %d", i, cell, c.Of[i])
			}
		}
		for a := range ds.Schema().Protected {
			if int(c.Codes[a][cell]) != ds.Code(a, int(rows[0])) {
				t.Fatalf("cell %d code on attribute %d is %d, want %d", cell, a, c.Codes[a][cell], ds.Code(a, int(rows[0])))
			}
		}
	}
}

func TestCellsGroupWorkers(t *testing.T) {
	ds := buildMany(t, 500)
	checkCells(t, ds, ds.Cells())
	// A mapped backing groups identically.
	mapped := openMapped(t, ds)
	if a, b := fmt.Sprint(*ds.Cells()), fmt.Sprint(*mapped.Cells()); a != b {
		t.Fatal("mapped dataset grouped differently from its heap twin")
	}
}

// A wide schema's cross product (1000^10 cells in the first case) must
// never be allocated: the grouping is O(N) in memory whatever the
// cardinalities. The second schema mixes attributes that share a radix
// digit with ones that need their own, so several passes run.
func TestCellsWideSchema(t *testing.T) {
	for _, buckets := range [][]int{
		{1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000},
		{1000, 50, 50, 7},
	} {
		var prot []Attribute
		for a, k := range buckets {
			prot = append(prot, Num(fmt.Sprintf("A%d", a), 0, 1, k))
		}
		schema := &Schema{Protected: prot, Observed: []Attribute{Num("Score", 0, 1, 1)}}
		b := NewBuilder(schema)
		r := rand.New(rand.NewSource(3))
		for i := 0; i < 400; i++ {
			pv := map[string]any{}
			for _, a := range prot {
				// Few distinct values per attribute so some cells repeat.
				pv[a.Name] = float64(r.Intn(3)) / 2
			}
			b.Add(fmt.Sprintf("w%d", i), pv, map[string]any{"Score": r.Float64()})
		}
		ds, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1, func() { groupCells(ds) })
		checkCells(t, ds, ds.Cells())
		if allocs > 100 {
			t.Fatalf("%v buckets: grouping 400 workers allocated %v times", buckets, allocs)
		}
	}
}

// Concurrent first calls share one grouping.
func TestCellsConcurrentFirstCall(t *testing.T) {
	ds := buildMany(t, 300)
	got := make([]*Cells, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = ds.Cells()
		}()
	}
	wg.Wait()
	for g := range got {
		if got[g] != got[0] {
			t.Fatal("concurrent Cells calls returned different groupings")
		}
	}
}
