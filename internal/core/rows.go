package core

import (
	"fairrank/internal/dataset"
	"fairrank/internal/histogram"
	"fairrank/internal/partition"
)

// This file defines the row space the searching algorithms — balanced,
// unbalanced, their random baselines, all-attributes and Beam — scatter.
// A search partition's Indices are rows of this space, not workers; each
// algorithm maps its final parts back to worker rows (workerParts) at the
// result boundary, so Result.Partitioning always lists workers. The
// exhaustive solvers and the public AvgPairwise, Unfairness and Histogram
// read worker rows directly.
//
// In binned mode the rows are collapsed: one row per occupied (protected
// cell, score bin) pair, weighted by the number of workers it stands for.
// Every split is on a protected attribute, so every search partition is a
// union of whole cells, and its bin counts are sums of row weights. A
// part's PMF is histogram.NormalizeCounts of integer bin counts, and
// integer sums are exact in float64 whatever order or grouping produced
// them — so every payload, distance, trace average and final unfairness
// equals the worker-row scan's bit for bit, while a probe scatters at most
// cells×bins rows instead of N workers (the paper's population has 1800
// occupied cells: 18 000 rows at 10 bins, whatever N is).
//
// The searches use the workers themselves as rows in Exact mode, whose
// payload is each part's sorted score sample (which a weight cannot stand
// for), and where every worker is its own cell — the collapse would then
// be the identity, one weight-1 row per worker, and building it and
// mapping results back would be two O(N) passes that save nothing.

// rowSpace is the row set the searches split.
type rowSpace struct {
	// n is the number of rows.
	n int
	// codes[a][r] is row r's partitioning code on protected attribute a.
	codes [][]uint16
	// bin[r] is row r's histogram bin and weight[r] the number of workers
	// it stands for; both nil when the rows are the workers (whose bins are
	// the evaluator's binIdx).
	bin    []int32
	weight []int32
	// cell[r] is row r's protected cell in cells; nil when the rows are
	// the workers themselves.
	cell  []int32
	cells *dataset.Cells
}

// searchRows returns the evaluator's row space, building it on first use:
// the collapsed rows in binned mode, unless every worker is its own cell;
// the workers otherwise. Building is O(N) (plus the dataset's one-time cell
// grouping), so evaluators that never search never pay it.
func (e *Evaluator) searchRows() *rowSpace {
	e.rowsOnce.Do(func() {
		if e.rows != nil {
			return
		}
		if !e.cfg.Exact {
			if cells := e.ds.Cells(); cells.N() < e.ds.N() {
				e.rows = collapsedRows(cells, e.binIdx, e.cfg.Bins)
				return
			}
		}
		e.rows = workerRows(e.ds)
	})
	return e.rows
}

// searchRoot returns the root partition of the evaluator's row space.
func (e *Evaluator) searchRoot() *partition.Partition {
	rs := e.searchRows()
	idx := make([]int, rs.n)
	for i := range idx {
		idx[i] = i
	}
	return &partition.Partition{Indices: idx}
}

// workerRows is the row space whose rows are the dataset's workers.
func workerRows(ds *dataset.Dataset) *rowSpace {
	rs := &rowSpace{n: ds.N(), codes: make([][]uint16, len(ds.Schema().Protected))}
	for a := range rs.codes {
		rs.codes[a] = ds.CodeColumn(a)
	}
	return rs
}

// collapsedRows groups each cell's workers by histogram bin into weighted
// rows, in O(N + bins) time: a bins-sized counter is touched only at the
// bins a cell occupies, and reset through the same list. Rows are laid
// out cell by cell, each cell's bins in order of first occurrence.
func collapsedRows(cells *dataset.Cells, binIdx []int, bins int) *rowSpace {
	n := len(cells.Of)
	est := n
	if bins < n {
		est = min(n, cells.N()*bins)
	}
	cell := make([]int32, 0, est)
	bin := make([]int32, 0, est)
	weight := make([]int32, 0, est)
	count := make([]int32, bins)
	var touched []int
	start, workers := cells.Start, cells.Rows
	for c := 0; c+1 < len(start); c++ {
		for _, w := range workers[start[c]:start[c+1]] {
			b := binIdx[w]
			if count[b] == 0 {
				touched = append(touched, b)
			}
			count[b]++
		}
		for _, b := range touched {
			cell = append(cell, int32(c))
			bin = append(bin, int32(b))
			weight = append(weight, count[b])
			count[b] = 0
		}
		touched = touched[:0]
	}
	rs := &rowSpace{n: len(cell), bin: bin, weight: weight, cell: cell, cells: cells}
	rs.codes = make([][]uint16, len(cells.Codes))
	for a, byCell := range cells.Codes {
		col := make([]uint16, rs.n)
		for r, c := range cell {
			col[r] = byCell[c]
		}
		rs.codes[a] = col
	}
	return rs
}

// rowData builds the comparison payload of a search partition from its
// rows: the weighted bin counts' PMF over collapsed rows, buildData's
// payload over worker rows.
func (e *Evaluator) rowData(indices []int) []float64 {
	rs := e.rows
	if rs.weight == nil {
		return e.buildData(indices)
	}
	counts := make([]float64, e.cfg.Bins)
	for _, r := range indices {
		counts[rs.bin[r]] += float64(rs.weight[r])
	}
	return histogram.NormalizeCounts(counts)
}

// size returns the number of workers in a search partition.
func (rs *rowSpace) size(p *partition.Partition) int {
	if rs.weight == nil {
		return len(p.Indices)
	}
	n := 0
	for _, r := range p.Indices {
		n += int(rs.weight[r])
	}
	return n
}

// workerParts maps disjoint search parts back to worker rows in one O(N)
// pass: each part keeps its constraints and name and lists its workers in
// ascending order, all parts carved from one exactly sized backing array
// and each capacity-capped at its own end, as partition.SplitObserve
// builds children. Parts over worker rows are returned as they are.
func (rs *rowSpace) workerParts(parts []*partition.Partition) []*partition.Partition {
	if rs.cell == nil {
		return parts
	}
	cell, weight := rs.cell, rs.weight
	partOf := make([]int32, rs.cells.N())
	for c := range partOf {
		partOf[c] = -1
	}
	// end[k] counts part k's workers, then becomes its next free slot.
	end := make([]int, len(parts))
	for k, p := range parts {
		size := 0
		for _, r := range p.Indices {
			partOf[cell[r]] = int32(k)
			size += int(weight[r])
		}
		end[k] = size
	}
	total := 0
	for k, size := range end {
		end[k] = total
		total += size
	}
	backing := make([]int, total)
	for i, c := range rs.cells.Of {
		if k := partOf[c]; k >= 0 {
			backing[end[k]] = i
			end[k]++
		}
	}
	out := make([]*partition.Partition, len(parts))
	lo := 0
	for k, p := range parts {
		hi := end[k]
		out[k] = &partition.Partition{Constraints: p.Constraints, Name: p.Name, Indices: backing[lo:hi:hi]}
		lo = hi
	}
	return out
}
