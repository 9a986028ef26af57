package core

import (
	"context"
	"slices"
	"strconv"
	"strings"
	"time"

	"fairrank/internal/partition"
)

// This file holds the exact solvers. Each enumerates one space of
// partitionings of the row space (rows.go) over the engine's own nodes:
//
//   - exhaustive, the tree space: every partitioning reachable by
//     hierarchical splits, each part either kept or split on an attribute
//     not yet used on its path (the space balanced and unbalanced
//     navigate). A tree node's children are its part's split, counted and
//     built as the searches split (countAll), so a split that would make a
//     part under Config.MinPartitionSize keeps the node whole.
//   - exhaustive-cells, the cell space: every grouping of the cells — the
//     parts all-attributes returns — into blocks, a superset of the tree
//     space.
//
// A solver counts its space first and refuses one larger than its budget
// with partition.ErrBudgetExceeded before it averages any candidate. It
// then streams the candidates in a fixed order, averages each once
// (candidateAverage) and keeps the earliest most unfair one; only that
// winner's parts are returned.

// space streams the candidates of one exhaustive solver.
type space interface {
	// each calls yield with every candidate's reps, in the space's order,
	// until yield returns false.
	each(yield func(reps []*rep) bool)
	// keep marks the candidate yield was last called with as the best.
	keep()
	// kept returns the kept candidate's parts over the row space.
	kept() []*partition.Partition
}

// spaceFunc counts a solver's space over attrs and returns it, or
// partition.ErrBudgetExceeded when it holds more than budget candidates,
// or ctx.Err() once ctx is done.
type spaceFunc func(ctx context.Context, e *Evaluator, attrs []int, budget int) (space, error)

// exhaustiveWith solves the optimization problem exactly: it averages
// every candidate of the space build returns and keeps the most unfair one
// (the earliest on a tie), under the given algorithm name. It checks ctx
// before every candidate.
//
// "exhaustive" enumerates every hierarchical split partitioning (the tree
// space). Beyond the budget it returns partition.ErrBudgetExceeded — the
// expected outcome at realistic attribute counts, mirroring the paper's
// brute-force solver that "failed to terminate after running for two
// days".
//
// "exhaustive-cells" enumerates the full set-partition space: every
// grouping of the cells of the attribute cross-product, a strict superset
// of the tree space (and of everything the heuristics can return). The
// space size is the Bell number of the cell count, so it is only usable on
// tiny instances; it exists to quantify how much optimum the tree-shaped
// formulations leave on the table.
func exhaustiveWith(ctx context.Context, e *Evaluator, attrs []int, budget int, name string, build spaceFunc) (*Result, error) {
	start := time.Now()
	if attrs == nil {
		attrs = e.Attrs()
	}
	sp, err := build(ctx, e, attrs, budget)
	if err != nil {
		return nil, err
	}
	avg := e.candidateAverage(ctx)
	best := -1.0
	sp.each(func(reps []*rep) bool {
		if ctx.Err() != nil {
			return false
		}
		if u := avg(reps); u > best {
			best = u
			sp.keep()
		}
		return true
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &Result{Algorithm: name, rows: sp.kept(), Unfairness: best, Elapsed: time.Since(start)}, nil
}

// candidateAverage returns the average one exhaustive run gives each
// candidate. Under the identity it is Evaluator.average. On the pair path
// each pair's distance comes from a memo keyed by the two reps' handles,
// computed on first use, and the distances are added in (i, j) slot order
// as finalAvg adds them, so the bits are finalAvg's.
func (e *Evaluator) candidateAverage(ctx context.Context) func([]*rep) float64 {
	if e.ident {
		return func(reps []*rep) float64 { return e.average(ctx, reps, 1) }
	}
	memo := make(map[uint64]float64)
	return func(reps []*rep) float64 {
		k := len(reps)
		if k < 2 {
			return 0
		}
		var computed int64
		sum := 0.0
		for i, ri := range reps {
			for _, rj := range reps[i+1:] {
				key := packPair(ri.id, rj.id)
				d, ok := memo[key]
				if !ok {
					d = e.distOf(ri.data, rj.data)
					memo[key] = d
					computed++
				}
				sum += d
			}
		}
		n := k * (k - 1) / 2
		e.countPairs(computed)
		e.served.Add(int64(n) - computed)
		return sum / float64(n)
	}
}

// satAdd and satMul are a+b and a·b for counts a, b <= limit, saturated
// at limit. Neither overflows for any limit <= 2⁶³.
func satAdd(a, b, limit uint64) uint64 {
	if a >= limit-b {
		return limit
	}
	return a + b
}

func satMul(a, b, limit uint64) uint64 {
	if a > (limit-1)/b {
		return limit
	}
	return a * b
}

// treeNode is one node of the tree space: a part of the row space
// reached by a path of splits, and the attributes its path has not used.
// kids[x] are its children on rest[x]: its one-part split, built.
type treeNode struct {
	part *partition.Partition
	rep  *rep
	rest []int
	kids [][]*treeNode
}

// treeSpace is the exhaustive solver's space. A candidate chooses, from
// the root down, for each node either the node as a leaf or its children
// on one remaining attribute.
type treeSpace struct {
	ctx   context.Context
	e     *Evaluator
	limit uint64
	root  *treeNode
	// byKey holds each constraint set's rep (shared).
	byKey map[string]*rep

	// todo holds the nodes still to choose for, the next on top; parts and
	// reps the current candidate's leaves; best the kept candidate's.
	todo  []*treeNode
	parts []*partition.Partition
	reps  []*rep
	best  []*partition.Partition
	yield func([]*rep) bool
}

func newTreeSpace(ctx context.Context, e *Evaluator, attrs []int, budget int) (space, error) {
	if budget < 1 {
		return nil, partition.ErrBudgetExceeded
	}
	limit := uint64(budget) + 1 // the count at which the space passes budget
	root := e.rootState(ctx)
	t := &treeSpace{ctx: ctx, e: e, limit: limit, root: &treeNode{part: root.parts[0], rep: root.reps[0], rest: attrs}, byKey: map[string]*rep{}}
	n := t.count(t.root)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n >= limit {
		return nil, partition.ErrBudgetExceeded
	}
	return t, nil
}

// shared returns the run's one rep for p's constraint set: r, the rep
// the split just built for p, the first time a split order reaches the
// set, and that first rep every later time. So the pair-path memo, keyed
// by handles, computes each distance once.
func (t *treeSpace) shared(p *partition.Partition, r *rep) *rep {
	k := p.Key()
	if first, ok := t.byKey[k]; ok {
		return first
	}
	t.byKey[k] = r
	return r
}

// count returns the number of trees below n, saturated at the limit:
// count(n) = 1 + Σ_a Π_child count(child). It builds n's children as it
// goes and stops as soon as the count reaches the limit or ctx is done.
func (t *treeSpace) count(n *treeNode) uint64 {
	if t.ctx.Err() != nil {
		return t.limit
	}
	total := uint64(1)
	n.kids = make([][]*treeNode, len(n.rest))
	one := &matState{e: t.e, parts: []*partition.Partition{n.part}, reps: []*rep{n.rep}}
	for x, a := range n.rest {
		split := one.countAll(a).built()
		rest := remove(n.rest, a)
		kids := make([]*treeNode, len(split.parts))
		prod := uint64(1)
		for c, p := range split.parts {
			kids[c] = &treeNode{part: p, rep: t.shared(p, split.reps[c]), rest: rest}
		}
		n.kids[x] = kids
		for _, k := range kids {
			if prod = satMul(prod, t.count(k), t.limit); prod == t.limit {
				return t.limit
			}
		}
		if total = satAdd(total, prod, t.limit); total == t.limit {
			return t.limit
		}
	}
	return total
}

func (t *treeSpace) each(yield func([]*rep) bool) {
	t.yield = yield
	t.todo = append(t.todo[:0], t.root)
	t.walk()
}

// walk chooses an option for every node on todo, the top one first: the
// node as a leaf, then for each of its remaining attributes in order its
// children in its place, the first child on top. So the first node's
// choice varies slowest, and a candidate lists its leaves in tree order.
// walk returns false once yield has, and leaves todo, parts and reps as it
// found them.
func (t *treeSpace) walk() bool {
	k := len(t.todo)
	if k == 0 {
		return t.yield(t.reps)
	}
	n := t.todo[k-1]
	t.todo = t.todo[:k-1]
	t.parts, t.reps = append(t.parts, n.part), append(t.reps, n.rep)
	ok := t.walk()
	t.parts, t.reps = t.parts[:len(t.parts)-1], t.reps[:len(t.reps)-1]
	for _, kids := range n.kids {
		if !ok {
			break
		}
		for c := len(kids) - 1; c >= 0; c-- {
			t.todo = append(t.todo, kids[c])
		}
		ok = t.walk()
		t.todo = t.todo[:k-1]
	}
	t.todo = append(t.todo, n)
	return ok
}

func (t *treeSpace) keep() { t.best = append(t.best[:0], t.parts...) }

func (t *treeSpace) kept() []*partition.Partition { return t.best }

// cellBlock is one block of the cell space: the block before its last
// cell joined (-1 for none) and that cell. Its rep is built on first use.
type cellBlock struct {
	prev, cell int32
	rep        *rep
}

// cellSpace is the exhaustive-cells solver's space, walked as restricted
// growth strings: cell c joins block labels[c], and a block's label is
// below every later new block's. A block gets a per-run id from the block
// it grew from and the cell that joined it, so each set of cells has
// exactly one id and one rep.
type cellSpace struct {
	e      *Evaluator
	cells  []*partition.Partition
	labels []int
	open   []int32 // open[l] is block l's id over the cells placed so far
	ids    map[uint64]int32
	blocks []cellBlock
	reps   []*rep
	best   []int
	yield  func([]*rep) bool
}

func newCellSpace(ctx context.Context, e *Evaluator, attrs []int, budget int) (space, error) {
	if budget < 1 {
		return nil, partition.ErrBudgetExceeded
	}
	limit := uint64(budget) + 1
	state := e.rootState(ctx)
	for _, a := range attrs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		state = state.split(ctx, a).built()
	}
	n := len(state.parts)
	if bell(n, limit) >= limit {
		return nil, partition.ErrBudgetExceeded
	}
	return &cellSpace{e: e, cells: state.parts, labels: make([]int, n), open: make([]int32, n), ids: map[uint64]int32{}}, nil
}

// bell returns the Bell number of n, the number of set partitions of n
// cells, saturated at limit, from the Bell triangle: each row starts with
// the previous row's last entry, each further entry adds the one above
// its left neighbour, and row r ends with Bell(r+1).
func bell(n int, limit uint64) uint64 {
	row := []uint64{1}
	for r := 1; r < n && row[r-1] < limit; r++ {
		next := make([]uint64, r+1)
		next[0] = row[r-1]
		for j := 1; j <= r; j++ {
			next[j] = satAdd(next[j-1], row[j-1], limit)
		}
		row = next
	}
	return min(row[len(row)-1], limit)
}

func (c *cellSpace) each(yield func([]*rep) bool) {
	c.yield = yield
	c.open[0] = c.join(-1, 0)
	c.walk(1, 0)
}

// join returns the id of block prev grown by cell.
func (c *cellSpace) join(prev int32, cell int) int32 {
	key := uint64(uint32(prev+1))<<32 | uint64(cell)
	id, ok := c.ids[key]
	if !ok {
		id = int32(len(c.blocks))
		c.ids[key] = id
		c.blocks = append(c.blocks, cellBlock{prev: prev, cell: int32(cell)})
	}
	return id
}

// walk places cells i.. into the blocks 0..top and new ones, in
// restricted growth order, and returns false once yield has.
func (c *cellSpace) walk(i, top int) bool {
	if i == len(c.cells) {
		c.reps = c.reps[:0]
		for _, id := range c.open[:top+1] {
			c.reps = append(c.reps, c.blockRep(id))
		}
		return c.yield(c.reps)
	}
	for l := 0; l <= top+1; l++ {
		prev := int32(-1)
		if l <= top {
			prev = c.open[l]
		}
		c.labels[i] = l
		c.open[l] = c.join(prev, i)
		ok := c.walk(i+1, max(top, l))
		c.open[l] = prev
		if !ok {
			return false
		}
	}
	return true
}

// blockRep returns block id's rep, built the first time from its cells'
// rows.
func (c *cellSpace) blockRep(id int32) *rep {
	b := &c.blocks[id]
	if b.rep == nil {
		var rows []int
		for x := id; x >= 0; x = c.blocks[x].prev {
			rows = append(rows, c.cells[c.blocks[x].cell].Indices...)
		}
		b.rep = &rep{id: uint32(id), data: c.e.rowData(rows)}
	}
	return b.rep
}

func (c *cellSpace) keep() { c.best = append(c.best[:0], c.labels...) }

// kept builds the kept grouping's blocks, each named after its cells, as
// "{c0+c3}", and listing its rows in ascending order.
func (c *cellSpace) kept() []*partition.Partition {
	var rows [][]int
	var names [][]string
	for cell, l := range c.best {
		if l == len(rows) {
			rows, names = append(rows, nil), append(names, nil)
		}
		rows[l] = append(rows[l], c.cells[cell].Indices...)
		names[l] = append(names[l], "c"+strconv.Itoa(cell))
	}
	parts := make([]*partition.Partition, len(rows))
	for l := range rows {
		slices.Sort(rows[l])
		parts[l] = &partition.Partition{Name: "{" + strings.Join(names[l], "+") + "}", Indices: rows[l]}
	}
	return parts
}
