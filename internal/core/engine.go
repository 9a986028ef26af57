package core

import (
	"context"
	"sort"

	"fairrank/internal/partition"
	"fairrank/internal/telemetry"
)

// This file implements the search states of the partitioning algorithms.
// A matState is one partitioning under evaluation: its parts, their
// representations (reps), and its average pairwise distance. A search
// step with one candidate is a scatter (scatterAll: split every part on
// an attribute, deriving the children's representations in the same
// single pass over the parent's rows, partition.SplitCodes over the row
// space of rows.go) followed by one average of the new state (average.go).
// The greedy choice scores each candidate attribute in binned mode by
// counting instead (countAll: per-value bin counts and sizes, no index
// lists); the state it returns has the reps and the average of its best
// split, and builds its parts only when the search keeps it (built). The
// unbalanced recursion regroups a state around one part (group) and
// averages a group with its first part replaced by that part's children
// (mergedAvg).
//
// A state keeps no distances. Its average depends only on its reps (and,
// on the pair path, their order), so it is the same at every
// Config.Parallelism.
type matState struct {
	e     *Evaluator
	parts []*partition.Partition
	reps  []*rep
	avg   float64
	// pending, when non-nil, is the counted split the state stands for:
	// parts is nil until built scatters it.
	pending *countedSplit
	// ctx, when non-nil, lets long evaluation loops stop early on
	// cancellation. Derived states inherit it. A cancelled probe returns a
	// state whose numbers must not be consulted; the algorithm layer checks
	// ctx.Err() after every chooser call and discards such results.
	ctx context.Context
}

// canceled reports whether the state's context (if any) is done. The check
// is cheap (one atomic load in the common cases), so hot loops poll it
// every ctxCheckStride iterations.
func (s *matState) canceled() bool {
	return s.ctx != nil && s.ctx.Err() != nil
}

// ctxCheckStride is how many loop iterations evaluation hot paths run
// between cancellation polls.
const ctxCheckStride = 64

// rep is the representation of one partition's score distribution: a
// handle plus the payload the configured mode compares — the binned
// column in binned mode (Evaluator.payload), the sorted score sample in
// Exact mode. Reps are immutable once built. newRep gives a rep a handle
// unique within its evaluator, which the tree space's pair-path memo keys
// on (exhaustive.go); the cell space numbers its blocks per run instead.
type rep struct {
	id   uint32
	data []float64
}

// newRep hands out the next handle of the evaluator for a rep of data.
func (e *Evaluator) newRep(data []float64) *rep {
	return &rep{id: e.reps.Add(1) - 1, data: data}
}

// rootState is where every search starts: the root of the evaluator's row
// space as its one part, and no pairs.
func (e *Evaluator) rootState(ctx context.Context) *matState {
	rs := e.searchRows()
	return &matState{e: e, parts: []*partition.Partition{e.searchRoot()}, reps: []*rep{rs.root}, ctx: ctx}
}

// scatterSplit splits p on attr in a single pass over its rows, deriving
// each child's representation from the same scan that builds its index
// slice: binned rows add their weights into per-child bin counts (a worker
// row weighs one), Exact rows append their scores. p's Indices are rows of
// the evaluator's row space (rows.go). Each child gets a new rep, built
// from what the scan gathered. A split that leaves the content unchanged
// (single occurring value, or a MinPartitionSize keep-whole) keeps the
// parent's rep.
func (e *Evaluator) scatterSplit(r *rep, p *partition.Partition, attr int) ([]*partition.Partition, []*rep) {
	rs := e.rows
	card := e.ds.Schema().Protected[attr].Cardinality()
	var (
		counts  [][]float64 // binned mode: per-value count rows
		vals    [][]float64 // exact mode: per-value score samples
		observe func(v, row int)
	)
	if e.cfg.Exact {
		vals = make([][]float64, card)
		observe = func(v, row int) {
			vals[v] = append(vals[v], e.scores[row])
		}
	} else if rs.weight == nil {
		// Worker rows: each row is one worker in bin bin[row].
		counts = make([][]float64, card)
		bins, bin := e.cfg.Bins, e.bin
		observe = func(v, row int) {
			c := counts[v]
			if c == nil {
				c = make([]float64, bins)
				counts[v] = c
			}
			c[bin[row]]++
		}
	} else {
		counts = make([][]float64, card)
		bins, bin, weight := e.cfg.Bins, rs.bin, rs.weight
		observe = func(v, row int) {
			c := counts[v]
			if c == nil {
				c = make([]float64, bins)
				counts[v] = c
			}
			c[bin[row]] += float64(weight[row])
		}
	}
	children := partition.SplitCodes(rs.codes[attr], card, p, attr, observe)
	if e.cfg.MinPartitionSize > 1 {
		// A split that would create a child with too few workers keeps
		// the parent whole.
		for _, c := range children {
			if rs.size(c) < e.cfg.MinPartitionSize {
				return []*partition.Partition{p}, []*rep{r}
			}
		}
	}
	if len(children) == 1 {
		// Single occurring value: the child is the parent's content under
		// one more constraint.
		return children, []*rep{r}
	}
	reps := make([]*rep, len(children))
	for ci, c := range children {
		v := c.Constraints[len(c.Constraints)-1].Value
		if e.cfg.Exact {
			sort.Float64s(vals[v])
			reps[ci] = e.newRep(vals[v])
		} else {
			reps[ci] = e.newRep(e.payload(counts[v]))
		}
	}
	return children, reps
}

// A countedSplit is a split of every part of a binned state on attr,
// counted but not scattered: the reps and the average the scattered state
// would have, in its part order. kids[i] is the number of children
// parents[i] splits into, 0 when a MinPartitionSize keep-whole leaves it
// as it is.
type countedSplit struct {
	attr    int
	parents []*partition.Partition
	kids    []int32
	reps    []*rep
	avg     float64
}

// countAll counts the split of every part of a binned state on attr (one
// probe): a pass over each part's rows adds their weights into per-value
// bin counts and sizes, and the keep-whole and single-value rules of
// scatterSplit are decided from those sizes. The children get the reps
// scatterSplit would build, from the same integer counts, and a part that
// keeps its content keeps its rep. No index list or Partition is built;
// the state of the split that is kept builds them (built). ctx carries
// the caller's span.
func (s *matState) countAll(ctx context.Context, attr int) *countedSplit {
	e := s.e
	e.tel.probes.Inc()
	_, ssp := telemetry.StartSpan(ctx, "split")
	defer ssp.End()
	rs, bins, minSize := e.rows, e.cfg.Bins, int32(e.cfg.MinPartitionSize)
	card := e.ds.Schema().Protected[attr].Cardinality()
	codes := rs.codes[attr]
	// Row v of tab counts one part's rows of value v: bins bin counts,
	// then the value's size. A row is cleared after each part where the
	// value occurs.
	stride := bins + 1
	tab := make([]int32, card*stride)
	// A part has at most min(card, rows) children.
	most := 0
	for _, p := range s.parts {
		most += min(card, len(p.Indices))
	}
	c := &countedSplit{attr: attr, parents: s.parts, kids: make([]int32, len(s.parts)), reps: make([]*rep, 0, most)}
	counts := make([]float64, 0, most*bins) // the new children's bin counts
	slots := make([]int, 0, most)           // the new children's indices in c.reps
	for i, p := range s.parts {
		if rs.weight == nil {
			bin := e.bin
			for _, r := range p.Indices {
				row := tab[int(codes[r])*stride:]
				row[bin[r]]++
				row[bins]++
			}
		} else {
			bin, weight := rs.bin, rs.weight
			for _, r := range p.Indices {
				row, w := tab[int(codes[r])*stride:], weight[r]
				row[bin[r]] += w
				row[bins] += w
			}
		}
		occurring, small := 0, false
		for v := bins; v < len(tab); v += stride {
			if n := tab[v]; n > 0 {
				occurring++
				small = small || n < minSize
			}
		}
		keep := small || occurring == 1
		if keep {
			// A keep-whole, or a single occurring value: the content is
			// the parent's.
			c.reps = append(c.reps, s.reps[i])
		}
		if !small {
			c.kids[i] = int32(occurring)
		}
		for lo := 0; lo < len(tab); lo += stride {
			row := tab[lo : lo+stride]
			if row[bins] == 0 {
				continue
			}
			if !keep {
				for _, x := range row[:bins] {
					counts = append(counts, float64(x))
				}
				slots = append(slots, len(c.reps))
				c.reps = append(c.reps, nil)
			}
			clear(row)
		}
	}
	fresh := make([]rep, len(slots))
	first := e.reps.Add(uint32(len(slots))) - uint32(len(slots))
	for j, at := range slots {
		fresh[j] = rep{id: first + uint32(j), data: e.payload(counts[j*bins : (j+1)*bins : (j+1)*bins])}
		c.reps[at] = &fresh[j]
	}
	ssp.SetInt("parents", int64(len(s.parts)))
	ssp.SetInt("parts", int64(len(c.reps)))
	return c
}

// counted returns the state of c: its reps and average, with its parts
// left to built.
func (s *matState) counted(c *countedSplit) *matState {
	return &matState{e: s.e, reps: c.reps, avg: c.avg, ctx: s.ctx, pending: c}
}

// built returns s with its parts: a counted state scatters its split once,
// every part with children split on the counted attribute by
// partition.SplitCodes, whose children come in the counted order,
// ascending value, and a kept-whole part kept as it is. Any other state
// is returned as it is.
func (s *matState) built() *matState {
	c := s.pending
	if c == nil {
		return s
	}
	card := s.e.ds.Schema().Protected[c.attr].Cardinality()
	s.parts = make([]*partition.Partition, 0, len(c.reps))
	for i, p := range c.parents {
		if c.kids[i] == 0 {
			s.parts = append(s.parts, p)
			continue
		}
		s.parts = append(s.parts, partition.SplitCodes(s.e.rows.codes[c.attr], card, p, c.attr, nil)...)
	}
	s.pending = nil
	return s
}

// startProbe opens a candidate's "probe" span under ctx, the parent of its
// split and emd spans.
func startProbe(ctx context.Context, attr int) (context.Context, *telemetry.Span) {
	pctx, psp := telemetry.StartSpan(ctx, "probe")
	psp.SetInt("attribute", int64(attr))
	return pctx, psp
}

// scatterAll splits every part on attr (scatterSplit) and builds the child
// state, its parts and reps in parent order, without averaging it. Each
// call counts as one probe. ctx carries the caller's span; the child
// inherits s's context.
func (s *matState) scatterAll(ctx context.Context, attr int) *matState {
	e := s.e
	e.tel.probes.Inc()
	_, ssp := telemetry.StartSpan(ctx, "split")
	defer ssp.End()
	ns := &matState{e: e, ctx: s.ctx}
	for i := range s.parts {
		children, reps := e.scatterSplit(s.reps[i], s.parts[i], attr)
		ns.parts = append(ns.parts, children...)
		ns.reps = append(ns.reps, reps...)
	}
	ssp.SetInt("parents", int64(len(s.parts)))
	ssp.SetInt("parts", int64(len(ns.parts)))
	return ns
}

// probe evaluates replacing every part with its children under attr — the
// balanced-round and random-choice operation: scatterAll, then average.
// workers bounds the pair path's concurrent fill.
func (s *matState) probe(attr, workers int) *matState {
	if s.canceled() {
		// Return a structurally valid state; the caller sees ctx.Err() and
		// discards it.
		return s
	}
	pctx, psp := startProbe(s.ctx, attr)
	defer psp.End()
	ns := s.scatterAll(pctx, attr)
	ns.avg = s.e.average(pctx, ns.reps, workers)
	return ns
}

// single extracts part x as a standalone one-part state, the starting
// point of the unbalanced local split decision.
func (s *matState) single(x int) *matState {
	return &matState{e: s.e, parts: s.parts[x : x+1], reps: s.reps[x : x+1], ctx: s.ctx}
}

// group reorders the state to put part x first — the grouping a child
// node of the unbalanced recursion evaluates against its local siblings.
// Under the exact identity the average depends only on the multiset of
// reps, which the reordering keeps, so it is s's own; the pair path sums
// in pair order and averages the group again.
func (s *matState) group(x int) *matState {
	k := len(s.parts)
	ns := &matState{
		e:     s.e,
		parts: make([]*partition.Partition, 0, k),
		reps:  make([]*rep, 0, k),
		ctx:   s.ctx,
	}
	ns.parts = append(append(append(ns.parts, s.parts[x]), s.parts[:x]...), s.parts[x+1:]...)
	ns.reps = append(append(append(ns.reps, s.reps[x]), s.reps[:x]...), s.reps[x+1:]...)
	if s.e.ident {
		ns.avg = s.avg
	} else {
		ns.avg = s.e.average(s.ctx, ns.reps, s.e.cfg.Parallelism)
	}
	return ns
}

// mergedAvg is the average of the group with part 0 replaced by the given
// children (as produced by choosing a split of part 0 alone): the reps
// ordered [children..., siblings...] and averaged in that order. It needs
// the children's reps only, not their parts.
func (s *matState) mergedAvg(children *matState) float64 {
	reps := make([]*rep, 0, len(children.reps)+len(s.reps)-1)
	reps = append(append(reps, children.reps...), s.reps[1:]...)
	return s.e.average(s.ctx, reps, s.e.cfg.Parallelism)
}
