package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/partition"
	"fairrank/internal/scoring"
)

// Tests for the per-worker passes split across Config.Parallelism
// (parRuns): NewEvaluator's scoring, finiteness check and binning and
// countRows must give the serial pass's bits at every parallelism, and
// only a scoring.BlockScorer may be called from more than one goroutine;
// and for workerParts, whose merges and pass must list every part's
// workers in order. Run under -race.

// passParallelisms are the parallelism levels every pass is compared at;
// 1 is the serial reference.
var passParallelisms = []int{1, 2, 3, 8}

// passSizes are the populations the passes are compared over: one worker,
// each side of a scoring block, each side of two minimum runs (the least
// population split in two) and about 100,000 workers, which splits into
// as many runs as the parallelism allows. twoScoreDataset's population
// has 30 protected cells, so the collapsed rows are counted (countRows)
// from 300 workers on.
var passSizes = []int{1, scoreBlock - 1, scoreBlock, scoreBlock + 1, 3*scoreBlock + 1,
	2*minRun - 1, 2 * minRun, 2*minRun + 1, 100_003}

func passLinear(t *testing.T) scoring.Func {
	t.Helper()
	f, err := scoring.NewLinear("f", map[string]float64{"LanguageTest": 0.3, "ApprovalRate": 0.7})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestPassesMatchSerial: the bin column, the score column of Exact mode,
// the collapsed rows and whole search results are the same at every
// parallelism as at 1, under a BlockScorer (split into runs) and a plain
// ScoreFunc (always serial).
func TestPassesMatchSerial(t *testing.T) {
	for _, n := range passSizes {
		ds := twoScoreDataset(t, n)
		ds.Cells()
		for _, f := range []scoring.Func{passLinear(t), scoring.ScoreFunc{FuncName: "plain", Fn: func(ds *dataset.Dataset, i int) float64 {
			return 0.4*ds.Observed(0, i)/100 + 0.6*ds.Observed(1, i)/100
		}}} {
			label := fmt.Sprintf("n=%d/%s", n, f.Name())
			var base *Evaluator
			var baseRes map[string]*Result
			for _, p := range passParallelisms {
				e, err := NewEvaluator(ds, f, Config{Bins: 10, Parallelism: p})
				if err != nil {
					t.Fatal(err)
				}
				exact, err := NewEvaluator(ds, f, Config{Exact: true, Parallelism: p})
				if err != nil {
					t.Fatal(err)
				}
				rs := e.searchRows()
				res := map[string]*Result{}
				for _, alg := range []string{"balanced", "unbalanced", "all-attributes"} {
					if res[alg], err = Run(context.Background(), Spec{Algorithm: alg, Evaluator: e}); err != nil {
						t.Fatal(err)
					}
					checkCarved(t, label+"/"+alg, res[alg])
				}
				if p == 1 {
					base, baseRes = e, res
					if !equalBits(exact.Scores(), scoring.Scores(ds, f)) {
						t.Fatalf("%s: Exact mode's score column differs from scoring.Scores", label)
					}
					continue
				}
				at := fmt.Sprintf("%s/parallelism=%d", label, p)
				if !slices.Equal(e.bin, base.bin) {
					t.Fatalf("%s: bin column differs from the serial pass's", at)
				}
				if !equalBits(exact.Scores(), scoring.Scores(ds, f)) {
					t.Fatalf("%s: Exact mode's score column differs from scoring.Scores", at)
				}
				brs := base.searchRows()
				if rs.n != brs.n || !slices.Equal(rs.cell, brs.cell) || !slices.Equal(rs.bin, brs.bin) ||
					!slices.Equal(rs.weight, brs.weight) {
					t.Fatalf("%s: collapsed rows differ from the serial count's", at)
				}
				for alg, r := range res {
					compareRowForms(t, at+"/"+alg, r, baseRes[alg])
				}
			}
		}
	}
}

func equalBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestCountRowsMatchesSerial: the (cell, bin) count summed from runs is
// the serial count, whichever builder the evaluator picked.
func TestCountRowsMatchesSerial(t *testing.T) {
	ds := twoScoreDataset(t, 100_003)
	e, err := NewEvaluator(ds, passLinear(t), Config{Bins: 10, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	cells := ds.Cells()
	want := countRows(cells.Of, cells.N(), e.bin, 10, 1)
	for _, p := range passParallelisms[1:] {
		got := countRows(cells.Of, cells.N(), e.bin, 10, p)
		if !slices.Equal(got.cell, want.cell) || !slices.Equal(got.bin, want.bin) || !slices.Equal(got.weight, want.weight) {
			t.Fatalf("parallelism %d: rows differ from the serial count's", p)
		}
	}
}

// workerPartsOracle lists each part's workers in ascending order by one
// scan of the workers: a worker belongs to the part that holds its cell's
// rows.
func workerPartsOracle(rs *rowSpace, parts []*partition.Partition) [][]int {
	partOf := make(map[int32]int)
	for k, p := range parts {
		for _, r := range p.Indices {
			partOf[rs.cell[r]] = k
		}
	}
	out := make([][]int, len(parts))
	for i, c := range rs.cells.Of {
		if k, ok := partOf[c]; ok {
			out[k] = append(out[k], i)
		}
	}
	return out
}

// TestWorkerPartsMatchesOracle: workerParts lists every part's workers in
// ascending order at every parallelism, for one part of all 30 cells
// (placed by the pass over the workers), one part per cell (copied from
// the cell index), parts of three cells (merged) between parts of one,
// parts that leave some cells out, and parts whose rows do not come cell
// by cell (placed by the pass).
func TestWorkerPartsMatchesOracle(t *testing.T) {
	for _, n := range passSizes {
		ds := twoScoreDataset(t, n)
		for _, p := range passParallelisms {
			e, err := NewEvaluator(ds, passLinear(t), Config{Bins: 10, Parallelism: p})
			if err != nil {
				t.Fatal(err)
			}
			rs := e.searchRows()
			if rs.cell == nil {
				continue // every worker its own cell: the search rows are the workers
			}
			root := e.searchRoot()
			// byCell groups the rows by cell; the rows of a cell are
			// adjacent.
			var byCell []*partition.Partition
			for r := 0; r < rs.n; r++ {
				if r == 0 || rs.cell[r] != rs.cell[r-1] {
					byCell = append(byCell, &partition.Partition{Name: fmt.Sprint("cell ", rs.cell[r])})
				}
				last := byCell[len(byCell)-1]
				last.Indices = append(last.Indices, r)
			}
			var mixed []*partition.Partition
			for k := 0; k < len(byCell); k += 3 {
				// A part of up to three cells, then a part of one.
				merged := &partition.Partition{Name: fmt.Sprint("block ", k)}
				for _, c := range byCell[k:min(k+3, len(byCell))] {
					merged.Indices = append(merged.Indices, c.Indices...)
				}
				mixed = append(mixed, merged)
				if k+3 < len(byCell) {
					mixed = append(mixed, byCell[k+3])
					k++
				}
			}
			// Parts of two cells whose rows alternate between them.
			var interleaved []*partition.Partition
			for k := 0; k+1 < len(byCell); k += 2 {
				a, b := byCell[k].Indices, byCell[k+1].Indices
				p := &partition.Partition{Name: fmt.Sprint("pair ", k)}
				for i := 0; i < max(len(a), len(b)); i++ {
					if i < len(a) {
						p.Indices = append(p.Indices, a[i])
					}
					if i < len(b) {
						p.Indices = append(p.Indices, b[i])
					}
				}
				interleaved = append(interleaved, p)
			}
			for name, parts := range map[string][]*partition.Partition{
				"root": {root}, "cells": byCell, "mixed": mixed, "some-cells": mixed[len(mixed)/2:],
				"interleaved": interleaved,
			} {
				label := fmt.Sprintf("n=%d/parallelism=%d/%s", n, p, name)
				got := e.workerParts(parts)
				want := workerPartsOracle(rs, parts)
				if len(got) != len(parts) {
					t.Fatalf("%s: %d parts, want %d", label, len(got), len(parts))
				}
				for k, g := range got {
					if g.Name != parts[k].Name || !slices.Equal(g.Indices, want[k]) || cap(g.Indices) != len(g.Indices) {
						t.Fatalf("%s: part %d (%s) lists %d workers (cap %d), want %d in ascending order",
							label, k, parts[k].Name, len(g.Indices), cap(g.Indices), len(want[k]))
					}
				}
			}
		}
	}
}

// faultyScorer is a BlockScorer whose scores are NaN at the workers of
// bad, and finite elsewhere.
type faultyScorer struct{ bad []int }

func (f faultyScorer) Name() string { return "faulty" }

func (f faultyScorer) Score(ds *dataset.Dataset, i int) float64 {
	if slices.Contains(f.bad, i) {
		return math.NaN()
	}
	return ds.Observed(0, i) / 100
}

func (f faultyScorer) ScoreBlock(ds *dataset.Dataset, lo int, out []float64) {
	for k := range out {
		out[k] = f.Score(ds, lo+k)
	}
}

// TestNonFiniteScoreNamesLowestWorkerInParallel: with non-finite scores in
// two blocks, which fall in different runs from parallelism 2 on, the
// error names the lower worker at every parallelism and in both modes.
func TestNonFiniteScoreNamesLowestWorkerInParallel(t *testing.T) {
	const n = 100_003
	ds := twoScoreDataset(t, n)
	for _, bad := range [][]int{
		{5, n - 2},
		{minRun + 7, 5 * minRun},
		{scoreBlock - 1, 4 * scoreBlock},
		{n - 1},
	} {
		for _, p := range passParallelisms {
			for _, exact := range []bool{false, true} {
				_, err := NewEvaluator(ds, faultyScorer{bad}, Config{Exact: exact, Parallelism: p})
				want := fmt.Sprintf("%q", ds.ID(bad[0]))
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("bad %v, parallelism %d, exact=%v: error %v, want one naming %s", bad, p, exact, err, want)
				}
			}
		}
	}
}

// goroutineID returns the calling goroutine's number, read from its stack
// header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := bytes.Cut(bytes.TrimPrefix(buf, []byte("goroutine ")), []byte(" "))
	return string(id)
}

// TestPlainScoreFuncIsSerial: a scoring function that is not a
// BlockScorer is called once per worker, in ascending order, from one
// goroutine, at every parallelism and in both modes. The calls are
// recorded without a lock, so under -race a concurrent call also fails.
func TestPlainScoreFuncIsSerial(t *testing.T) {
	const n = 3*minRun + 1
	ds := twoScoreDataset(t, n)
	for _, p := range passParallelisms {
		for _, exact := range []bool{false, true} {
			var calls []int
			goroutines := map[string]bool{}
			f := scoring.ScoreFunc{FuncName: "plain", Fn: func(ds *dataset.Dataset, i int) float64 {
				calls = append(calls, i)
				if i%scoreBlock == 0 || i == n-1 {
					goroutines[goroutineID()] = true
				}
				return ds.Observed(0, i) / 100
			}}
			if _, err := NewEvaluator(ds, f, Config{Exact: exact, Parallelism: p}); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("parallelism %d, exact=%v", p, exact)
			if len(calls) != n {
				t.Fatalf("%s: %d calls for %d workers", label, len(calls), n)
			}
			for k, i := range calls {
				if i != k {
					t.Fatalf("%s: call %d scored worker %d", label, k, i)
				}
			}
			if len(goroutines) != 1 {
				t.Fatalf("%s: called from %d goroutines", label, len(goroutines))
			}
		}
	}
}
