package dataset

// Cells groups a dataset's workers by protected cell: two workers share a
// cell exactly when they carry the same partitioning code on every
// protected attribute. A conjunction of protected-attribute constraints
// selects whole cells, so every partition a greedy search builds is a
// union of cells — which is what lets the engine search over cells (and
// their score bins) instead of over workers.
//
// Cells are a function of the protected columns alone, never of a scoring
// function, so a Dataset computes them once and caches them (see
// Dataset.Cells). A Cells value is immutable once returned.
type Cells struct {
	// Of[i] is worker i's cell.
	Of []int32
	// Start and Rows list each cell's workers: cell c holds the workers
	// Rows[Start[c]:Start[c+1]], in ascending order.
	Start []int32
	Rows  []int32
	// Codes[a][c] is cell c's partitioning code on protected attribute a.
	Codes [][]uint16
}

// N returns the number of (non-empty) cells.
func (c *Cells) N() int { return len(c.Start) - 1 }

// Cells returns the dataset's protected-cell grouping. The first call
// pays O(N·P) time and O(N) memory for N workers and P protected
// attributes — never anything proportional to the attributes'
// cross-product, which a wide schema makes astronomically large; the
// result is cached on the immutable Dataset, so later calls cost O(1).
// Cells is safe for concurrent use.
func (d *Dataset) Cells() *Cells {
	d.cellsOnce.Do(func() { d.cells = groupCells(d) })
	return d.cells
}

// groupCells sorts the workers by their code tuple with a least-
// significant-digit-first radix sort and cuts the sorted order wherever
// adjacent workers' tuples differ. A digit is a run of consecutive
// attributes whose cardinalities multiply to at most max(N, 2^16), so
// each stable counting pass costs O(N + N) time and memory however wide
// the schema; a schema whose whole cross product is that small (the
// paper's: 1800 cells) sorts in one pass over sequential reads.
// Stability keeps each cell's workers in ascending order; cells come out
// in lexicographic code order.
func groupCells(d *Dataset) *Cells {
	n := d.n
	prot := d.schema.Protected
	maxDigit := max(n, 1<<16)
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	tmp := make([]int32, n)
	// digit[k] is the pass's digit of worker order[k]; sorted[k] the same
	// digit of the worker the pass puts at position k. After the last
	// (most significant) pass, sorted lets the cut below compare one
	// integer instead of every attribute.
	digit := make([]int32, n)
	sorted := make([]int32, n)
	passes := 0
	for hi := len(prot); hi > 0; {
		lo, size := hi-1, prot[hi-1].Cardinality()
		for lo > 0 && size*prot[lo-1].Cardinality() <= maxDigit {
			lo--
			size *= prot[lo].Cardinality()
		}
		next := make([]int, size)
		for k, i := range order {
			v := 0
			for a := lo; a < hi; a++ {
				v = v*prot[a].Cardinality() + int(d.codes[a][i])
			}
			digit[k] = int32(v)
			next[v]++
		}
		start := 0
		for v, cnt := range next {
			next[v] = start
			start += cnt
		}
		for k, i := range order {
			v := digit[k]
			tmp[next[v]] = i
			sorted[next[v]] = v
			next[v]++
		}
		order, tmp = tmp, order
		hi = lo
		passes++
	}
	c := &Cells{Of: make([]int32, n), Rows: order, Start: []int32{0}}
	for k, i := range order {
		if k > 0 && (sorted[k] != sorted[k-1] || (passes > 1 && !d.sameCell(int(order[k-1]), int(i)))) {
			c.Start = append(c.Start, int32(k))
		}
		c.Of[i] = int32(len(c.Start) - 1)
	}
	c.Start = append(c.Start, int32(n))
	c.Codes = make([][]uint16, len(d.codes))
	for a, col := range d.codes {
		codes := make([]uint16, c.N())
		for cell := range codes {
			codes[cell] = col[order[c.Start[cell]]]
		}
		c.Codes[a] = codes
	}
	return c
}

// sameCell reports whether workers i and j carry the same code on every
// protected attribute.
func (d *Dataset) sameCell(i, j int) bool {
	for _, col := range d.codes {
		if col[i] != col[j] {
			return false
		}
	}
	return true
}
