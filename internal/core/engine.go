package core

import (
	"context"
	"sort"

	"fairrank/internal/partition"
	"fairrank/internal/telemetry"
)

// This file implements the search states of the partitioning algorithms.
// A matState is one partitioning under evaluation: its parts, their
// representations (reps), and its average pairwise distance. Every search
// step splits parts the same way: countAll counts the split of every part
// on an attribute in one pass over the parts' rows (rows of the row space
// of rows.go) and builds the children's reps from what it gathered, with
// no index list; a probe averages that state (average.go); and the state
// builds its parts (built: partition.SplitCodes, once per part) only when
// the search keeps it. So a candidate the greedy choice rejects, a Beam
// state past the beam's width and a split an unbalanced node declines
// scatter nothing. The unbalanced recursion regroups a state around one
// part (group) and averages a group with its first part replaced by that
// part's children (mergedAvg).
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
	pending *pendingSplit
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
// Exact mode. Reps are immutable once built. Each gets a handle unique
// within its evaluator (the row space root's, or one of the block countAll
// takes), which the tree space's pair-path memo keys on (exhaustive.go);
// the cell space numbers its blocks per run instead.
type rep struct {
	id   uint32
	data []float64
}

// rootState is where every search starts: the root of the evaluator's row
// space as its one part, and no pairs.
func (e *Evaluator) rootState(ctx context.Context) *matState {
	rs := e.searchRows()
	return &matState{e: e, parts: []*partition.Partition{e.searchRoot()}, reps: []*rep{rs.root}, ctx: ctx}
}

// A pendingSplit is the split a counted state stands for: every part of
// parents split on attr, except the parts whole marks, which keep their
// rows as they are.
type pendingSplit struct {
	attr    int
	parents []*partition.Partition
	whole   []bool
}

// countAll counts the split of every part of s on attr in one pass over
// each part's rows, and returns the state it stands for: its reps, in part
// order, with its parts left to built and no average. Binned rows add
// their weights into per-value bin counts and sizes (a worker row weighs
// one); Exact rows append their scores to per-value samples. A part keeps
// its content, and its rep, when a child would hold fewer than
// Config.MinPartitionSize workers (it stays whole) or when one value
// occurs (its one child carries one more constraint). Every other child
// gets a new rep, built from what the pass gathered: the payload of its
// integer bin counts, or its sorted sample. No index list or Partition is
// built.
func (s *matState) countAll(attr int) *matState {
	e := s.e
	rs, exact, bins, minSize := e.rows, e.cfg.Exact, e.cfg.Bins, int32(e.cfg.MinPartitionSize)
	card := e.ds.Schema().Protected[attr].Cardinality()
	codes := rs.codes[attr]
	var vals [][]float64 // Exact mode: per-value score samples
	if exact {
		bins, vals = 0, make([][]float64, card)
	}
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
	pend := &pendingSplit{attr: attr, parents: s.parts, whole: make([]bool, len(s.parts))}
	ns := &matState{e: e, reps: make([]*rep, 0, most), ctx: s.ctx, pending: pend}
	fresh := make([]rep, 0, most)           // the new children's reps; never regrown
	counts := make([]float64, 0, most*bins) // the new children's bin counts
	for i, p := range s.parts {
		switch {
		case exact:
			scores := e.scores
			for _, r := range p.Indices {
				v := codes[r]
				tab[v]++
				vals[v] = append(vals[v], scores[r])
			}
		case rs.weight == nil:
			bin := e.bin
			for _, r := range p.Indices {
				row := tab[int(codes[r])*stride:]
				row[bin[r]]++
				row[bins]++
			}
		default:
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
			ns.reps = append(ns.reps, s.reps[i])
		}
		pend.whole[i] = small
		for v := 0; v < card; v++ {
			row := tab[v*stride : (v+1)*stride]
			if row[bins] == 0 {
				continue
			}
			if !keep {
				var data []float64
				if exact {
					data = vals[v]
					sort.Float64s(data)
				} else {
					lo := len(counts)
					for _, x := range row[:bins] {
						counts = append(counts, float64(x))
					}
					data = e.payload(counts[lo:len(counts):len(counts)])
				}
				fresh = append(fresh, rep{data: data})
				ns.reps = append(ns.reps, &fresh[len(fresh)-1])
			}
			clear(row)
			if exact {
				vals[v] = nil
			}
		}
	}
	first := e.reps.Add(uint32(len(fresh))) - uint32(len(fresh))
	for j := range fresh {
		fresh[j].id = first + uint32(j)
	}
	return ns
}

// built returns s with its parts: a counted state scatters its split once,
// every part not kept whole split on the counted attribute by
// partition.SplitCodes, whose children come in the counted order,
// ascending value. Any other state is returned as it is.
func (s *matState) built() *matState {
	c := s.pending
	if c == nil {
		return s
	}
	card := s.e.ds.Schema().Protected[c.attr].Cardinality()
	s.parts = make([]*partition.Partition, 0, len(s.reps))
	for i, p := range c.parents {
		if c.whole[i] {
			s.parts = append(s.parts, p)
			continue
		}
		s.parts = append(s.parts, partition.SplitCodes(s.e.rows.codes[c.attr], card, p, c.attr)...)
	}
	s.pending = nil
	return s
}

// split is countAll as one probe of the search: it counts on the probe
// counter, under a "split" span of ctx.
func (s *matState) split(ctx context.Context, attr int) *matState {
	s.e.tel.probes.Inc()
	_, sp := telemetry.StartSpan(ctx, "split")
	defer sp.End()
	ns := s.countAll(attr)
	sp.SetInt("parents", int64(len(s.parts)))
	sp.SetInt("parts", int64(len(ns.reps)))
	return ns
}

// probe evaluates replacing every part with its children under attr, under
// a "probe" span of ctx: split, then average. The state it returns builds
// its parts only when the search keeps it (built). workers bounds the pair
// path's concurrent fill.
func (s *matState) probe(ctx context.Context, attr, workers int) *matState {
	if s.canceled() {
		// Return a structurally valid state; the caller sees ctx.Err() and
		// discards it.
		return s
	}
	pctx, psp := startProbe(ctx, attr)
	defer psp.End()
	ns := s.split(pctx, attr)
	ns.avg = s.e.average(pctx, ns.reps, workers)
	return ns
}

// startProbe opens a candidate's "probe" span under ctx, the parent of its
// split and emd spans.
func startProbe(ctx context.Context, attr int) (context.Context, *telemetry.Span) {
	pctx, psp := telemetry.StartSpan(ctx, "probe")
	psp.SetInt("attribute", int64(attr))
	return pctx, psp
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
