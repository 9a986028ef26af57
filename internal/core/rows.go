package core

import (
	"slices"

	"fairrank/internal/dataset"
	"fairrank/internal/partition"
)

// This file defines the row space every algorithm splits: balanced,
// unbalanced, their random baselines, all-attributes, Beam and the
// exhaustive solvers. A search partition's Indices are rows of this space,
// not workers, and every algorithm ends here: Search sizes its final parts
// from the row weights (rowSpace.size) and lists no worker. Only Run and
// Beam map the parts back to worker rows (workerParts), so a
// Result.Partitioning, where there is one, lists workers. The public
// AvgPairwise, Unfairness and Histogram read worker rows directly.
//
// In binned mode the rows are collapsed: one row per occupied (protected
// cell, score bin) pair, weighted by the number of workers it stands for.
// Every split is on a protected attribute, so every search partition is a
// union of whole cells, and its bin counts are sums of row weights. A
// part's payload is computed from integer bin counts, and integer sums
// are exact in float64 whatever order or grouping produced them — so
// every payload, distance, trace average and final unfairness equals the
// worker-row scan's bit for bit, while a probe counts at most cells×bins
// rows instead of N workers (the paper's population has 1800 occupied
// cells: 18 000 rows at 10 bins, whatever N is).
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
	// the evaluator's bin column).
	bin    []int32
	weight []int32
	// cell[r] is row r's protected cell in cells; nil when the rows are
	// the workers themselves.
	cell  []int32
	cells *dataset.Cells
	// root is the rep of the whole space.
	root *rep
}

// searchRows returns the evaluator's row space, building it and its
// root's rep on first use: the collapsed rows in binned mode, unless every
// worker is its own cell; the workers otherwise. Building is O(N) (plus
// the dataset's one-time cell grouping), so evaluators that never search
// never pay it.
func (e *Evaluator) searchRows() *rowSpace {
	e.rowsOnce.Do(func() {
		switch {
		case e.rows != nil:
		case !e.cfg.Exact && e.ds.Cells().N() < e.ds.N():
			e.rows = collapsedRows(e.ds.Cells(), e.bin, e.cfg.Bins, e.cfg.Parallelism)
		default:
			e.rows = workerRows(e.ds)
		}
		e.rows.root = &rep{id: e.reps.Add(1) - 1, data: e.rowData(e.searchRoot().Indices)}
	})
	return e.rows
}

// searchRoot returns a fresh root partition of the evaluator's row space,
// which must be built.
func (e *Evaluator) searchRoot() *partition.Partition {
	idx := make([]int, e.rows.n)
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
// rows, laid out cell by cell, in O(N) time and memory. When the dense
// cells×bins count table has no more entries than there are workers, one
// pass in worker order fills it (countRows, across up to workers
// goroutines); otherwise each cell's workers are gathered through the cell
// index (gatherRows).
func collapsedRows(cells *dataset.Cells, bin []int32, bins, workers int) *rowSpace {
	var rs *rowSpace
	if cells.N() <= len(bin)/bins {
		rs = countRows(cells.Of, cells.N(), bin, bins, workers)
	} else {
		rs = gatherRows(cells, bin, bins)
	}
	rs.n, rs.cells = len(rs.cell), cells
	rs.codes = make([][]uint16, len(cells.Codes))
	for a, byCell := range cells.Codes {
		col := make([]uint16, rs.n)
		for r, c := range rs.cell {
			col[r] = byCell[c]
		}
		rs.codes[a] = col
	}
	return rs
}

// countRows counts workers per (cell, bin) in a dense table filled in
// worker order — sequential reads of both columns — and emits each cell's
// occupied bins in ascending order. Up to workers goroutines each count a
// run of the workers into a table of their own, at least as many workers
// as the table has entries, and the tables are summed as integers.
func countRows(of []int32, nc int, bin []int32, bins, workers int) *rowSpace {
	tables := make([][]int32, max(1, workers))
	parRuns(len(of), max(minRun, nc*bins), workers, func(run, lo, hi int) error {
		t := make([]int32, nc*bins)
		for i, c := range of[lo:hi] {
			t[int(c)*bins+int(bin[lo+i])]++
		}
		tables[run] = t
		return nil
	})
	table := tables[0]
	for _, t := range tables[1:] {
		for x, w := range t {
			table[x] += w
		}
	}
	n := 0
	for _, w := range table {
		if w != 0 {
			n++
		}
	}
	rs := &rowSpace{cell: make([]int32, 0, n), bin: make([]int32, 0, n), weight: make([]int32, 0, n)}
	for x, w := range table {
		if w != 0 {
			rs.cell = append(rs.cell, int32(x/bins))
			rs.bin = append(rs.bin, int32(x%bins))
			rs.weight = append(rs.weight, w)
		}
	}
	return rs
}

// gatherRows splits each cell's workers by bin in O(N + bins) time: a
// bins-sized counter is touched only at the bins a cell occupies, and
// reset through the same list. Each cell's bins come in order of first
// occurrence.
func gatherRows(cells *dataset.Cells, bin []int32, bins int) *rowSpace {
	est := min(len(bin), cells.N()*bins)
	rs := &rowSpace{cell: make([]int32, 0, est), bin: make([]int32, 0, est), weight: make([]int32, 0, est)}
	count := make([]int32, bins)
	var touched []int32
	start, workers := cells.Start, cells.Rows
	for c := 0; c+1 < len(start); c++ {
		for _, w := range workers[start[c]:start[c+1]] {
			b := bin[w]
			if count[b] == 0 {
				touched = append(touched, b)
			}
			count[b]++
		}
		for _, b := range touched {
			rs.cell = append(rs.cell, int32(c))
			rs.bin = append(rs.bin, b)
			rs.weight = append(rs.weight, count[b])
			count[b] = 0
		}
		touched = touched[:0]
	}
	return rs
}

// rowData builds the comparison payload of a search partition from its
// rows: the payload of the weighted bin counts over collapsed rows,
// buildData's over worker rows.
func (e *Evaluator) rowData(indices []int) []float64 {
	rs := e.rows
	if rs.weight == nil {
		return e.buildData(indices)
	}
	counts := make([]float64, e.cfg.Bins)
	for _, r := range indices {
		counts[rs.bin[r]] += float64(rs.weight[r])
	}
	return e.payload(counts)
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

// workerParts maps disjoint search parts back to worker rows in O(N):
// each part keeps its constraints and name and lists its workers in
// ascending order, all parts carved from one exactly sized backing array
// and each capacity-capped at its own end, as partition.SplitCodes
// builds children. Parts over worker rows are returned as they are.
//
// A part of at most mergeWays cells merges its cells' ascending worker
// lists from the cell index (a part of one cell copies its list): reads
// and writes in order, where placing every worker into ~1,800 parts'
// slots took ~9 ns a worker at 1M, mostly address-translation misses.
// The workers of the other parts are placed by one pass over the workers
// in order. Both run on the calling goroutine: on two vCPUs, merges split
// across two goroutines took as long, and a pass split into runs took
// longer than one pass once it had to count each run's workers first.
func (e *Evaluator) workerParts(parts []*partition.Partition) []*partition.Partition {
	rs := e.rows
	if rs.cell == nil {
		return parts
	}
	cell, weight, cells := rs.cell, rs.weight, rs.cells
	// start[k] is part k's first slot, start[len(parts)] the total;
	// lists[first[k]:first[k+1]] are part k's cells when it merges them,
	// and partOf[c] is the part of cell c when the pass places it, -1
	// otherwise.
	start := make([]int, len(parts)+1)
	first := make([]int, len(parts)+1)
	lists := make([]int32, 0, min(cells.N(), (mergeWays+1)*len(parts)))
	partOf := make([]int32, cells.N())
	for c := range partOf {
		partOf[c] = -1
	}
	placed := false
	for k, p := range parts {
		size, n := 0, 0
		for _, r := range p.Indices {
			size += int(weight[r])
			c := cell[r]
			partOf[c] = int32(k)
			// A part's rows come cell by cell, as the row space lays them
			// out; listing stops past mergeWays cells.
			if n <= mergeWays && (n == 0 || lists[len(lists)-1] != c) {
				lists = append(lists, c)
				n++
			}
		}
		start[k+1] = start[k] + size
		if n <= mergeWays && cellsHold(cells, lists[first[k]:], size) {
			for _, c := range lists[first[k]:] {
				partOf[c] = -1
			}
		} else {
			lists, placed = lists[:first[k]], true
		}
		first[k+1] = len(lists)
	}
	backing := make([]int, start[len(parts)])
	for k := range parts {
		if first[k] < first[k+1] {
			mergeCells(backing[start[k]:start[k+1]], cells, lists[first[k]:first[k+1]])
		}
	}
	if placed {
		next := slices.Clone(start)
		for i, c := range cells.Of {
			if k := partOf[c]; k >= 0 {
				backing[next[k]] = i
				next[k]++
			}
		}
	}
	out := make([]*partition.Partition, len(parts))
	for k, p := range parts {
		lo, hi := start[k], start[k+1]
		out[k] = &partition.Partition{Constraints: p.Constraints, Name: p.Name, Indices: backing[lo:hi:hi]}
	}
	return out
}

// cellsHold reports whether the cells hold size workers between them: so
// they do when each of a part's cells was listed once. A part whose rows
// did not come cell by cell lists a cell twice and is left to the pass.
func cellsHold(cells *dataset.Cells, cs []int32, size int) bool {
	n := 0
	for _, c := range cs {
		n += int(cells.Start[c+1] - cells.Start[c])
	}
	return n == size
}

// mergeWays is the most cells a part may have for workerParts to merge
// their lists: each of its workers costs a scan of the lists' heads,
// against the pass over every worker that places the other parts.
const mergeWays = 16

// mergeCells writes the workers of the given cells, at most mergeWays of
// them, into dst in ascending order, merging the cells' ascending lists
// from the cell index.
func mergeCells(dst []int, cells *dataset.Cells, lists []int32) {
	var next, end [mergeWays]int32
	for j, c := range lists {
		next[j], end[j] = cells.Start[c], cells.Start[c+1]
	}
	rows, ways := cells.Rows, len(lists)
	for i := 0; i < len(dst); i++ {
		if ways == 1 {
			// One list left: the rest of dst is its rest.
			for j, w := range rows[next[0]:end[0]] {
				dst[i+j] = int(w)
			}
			return
		}
		best := 0
		for j := 1; j < ways; j++ {
			if rows[next[j]] < rows[next[best]] {
				best = j
			}
		}
		dst[i] = int(rows[next[best]])
		if next[best]++; next[best] == end[best] {
			// The list is spent: the last one takes its place.
			ways--
			next[best], end[best] = next[ways], end[ways]
		}
	}
}
