package core

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"fairrank/internal/histogram"
	"fairrank/internal/partition"
	"fairrank/internal/telemetry"
)

// This file implements the incremental pairwise-EMD engine. A matState is
// one partitioning under evaluation: its parts, their interned dense-handle
// representations, and the flat upper triangle of pairwise distances whose
// canonical-order reduction is the partitioning's unfairness. Every search
// step is a scatter (scatterAll: split every part on a candidate attribute,
// deriving the children's representations in the same single pass over the
// parent's rows, partition.SplitCodes over the row space of rows.go), an
// optional bound (prune.go) and a fill (fill: compute only the distances
// that touch changed parts, copying the rest from the parent's triangle).
// The unbalanced recursion regroups and merges states by delta (group,
// replaceFirst), and a search's final parts are averaged without a
// triangle (finalAvg).
//
// Invariant: every average is reduced serially in (i, j) pair order over
// the state's own part ordering, which is exactly the order the from-
// scratch serial AvgPairwise loop would use — so incremental results are
// bit-identical to from-scratch serial evaluation regardless of
// Config.Parallelism.
type matState struct {
	e     *Evaluator
	parts []*partition.Partition
	reps  []*rep
	// parent[i] is the index in the scattered state of part i's parent,
	// and aliased[i] whether part i shares that parent's rep; set by
	// scatterAll for the fill, nil on other states.
	parent  []int32
	aliased []bool
	dist    []float64 // upper triangle: pair (i,j), i<j, at tri(k,i,j); nil until filled
	avg     float64
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

// tri maps pair (i, j) with i < j to its slot in the flat upper triangle
// of a k×k distance matrix.
func tri(k, i, j int) int { return i*(2*k-i-1)/2 + j - i - 1 }

// avgOf reduces a distance triangle in slot order — the canonical (i, j)
// serial order — returning 0 when there are no pairs.
func avgOf(d []float64) float64 {
	if len(d) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	return sum / float64(len(d))
}

// rootState is where every search starts: the root of the evaluator's row
// space as its one part, and no pairs.
func (e *Evaluator) rootState(ctx context.Context) *matState {
	root := e.searchRoot()
	return &matState{e: e, parts: []*partition.Partition{root}, reps: []*rep{e.rowRep(root)}, dist: []float64{}, ctx: ctx}
}

// splitPart is the outcome of scatter-splitting one parent: the child
// partitions, their reps, and whether the split left the content
// unchanged (single occurring value, or a MinPartitionSize keep-whole) —
// in which case the sole child aliases the parent's rep and every
// distance involving it can be copied instead of recomputed.
type splitPart struct {
	children []*partition.Partition
	reps     []*rep
	aliased  bool
}

// scatterSplit splits p on attr in a single pass over its rows, deriving
// each child's representation from the same scan that builds its index
// slice: binned rows add their weights into per-child bin counts (a worker
// row weighs one), Exact rows append their scores. p's Indices are rows of the evaluator's row
// space (rows.go). Child reps are interned under (parent handle, attr,
// value) — which fully determines the child's content — so re-probes of
// the same split are served from the cache without touching the rows.
func (e *Evaluator) scatterSplit(r *rep, p *partition.Partition, attr int) splitPart {
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
				return splitPart{children: []*partition.Partition{p}, reps: []*rep{r}, aliased: true}
			}
		}
	}
	if len(children) == 1 {
		// Single occurring value: the child is the parent's content under
		// one more constraint; alias the parent's rep.
		return splitPart{children: children, reps: []*rep{r}, aliased: true}
	}
	reps := make([]*rep, len(children))
	for ci, c := range children {
		v := c.Constraints[len(c.Constraints)-1].Value
		key := childKey(r.id, attr, v)
		if cr, ok := e.reps.lookupChild(key); ok {
			reps[ci] = cr
			continue
		}
		var data []float64
		if e.cfg.Exact {
			data = vals[v]
			sort.Float64s(data)
		} else {
			data = histogram.NormalizeCounts(counts[v])
		}
		reps[ci] = e.reps.internChild(key, data)
	}
	return splitPart{children: children, reps: reps}
}

// startProbe opens a candidate's "probe" span under ctx, the parent of its
// split, emd and reduce spans.
func startProbe(ctx context.Context, attr int) (context.Context, *telemetry.Span) {
	pctx, psp := telemetry.StartSpan(ctx, "probe")
	psp.SetInt("attribute", int64(attr))
	return pctx, psp
}

// scatterAll splits every part on attr (scatterSplit) and builds the child
// state once, without distances: its parts and reps in parent order, each
// child's parent index and whether it aliases its parent's rep. The bound,
// the fill and all-attributes' scatter-only probes all read it. Each call
// counts as one probe. ctx carries the caller's span; the child inherits
// s's context.
func (s *matState) scatterAll(ctx context.Context, attr int) *matState {
	e := s.e
	e.tel.probes.Inc()
	_, ssp := telemetry.StartSpan(ctx, "split")
	defer ssp.End()
	splits := make([]splitPart, len(s.parts))
	nk := 0
	for i := range s.parts {
		splits[i] = e.scatterSplit(s.reps[i], s.parts[i], attr)
		nk += len(splits[i].children)
	}
	ns := &matState{
		e:       e,
		parts:   make([]*partition.Partition, 0, nk),
		reps:    make([]*rep, 0, nk),
		parent:  make([]int32, 0, nk),
		aliased: make([]bool, 0, nk),
		ctx:     s.ctx,
	}
	for i, sp := range splits {
		ns.parts = append(ns.parts, sp.children...)
		ns.reps = append(ns.reps, sp.reps...)
		for range sp.children {
			ns.parent = append(ns.parent, int32(i))
			ns.aliased = append(ns.aliased, sp.aliased)
		}
	}
	ssp.SetInt("parents", int64(len(s.parts)))
	ssp.SetInt("parts", int64(nk))
	return ns
}

// probe evaluates replacing every part with its children under attr — the
// balanced-round and random-choice operation: scatterAll, then fill.
// workers bounds the concurrent distance fill.
func (s *matState) probe(attr, workers int) *matState {
	if s.canceled() {
		// Return a structurally valid state; the caller sees ctx.Err() and
		// discards it.
		return s
	}
	pctx, psp := startProbe(s.ctx, attr)
	defer psp.End()
	ns := s.scatterAll(pctx, attr)
	s.fill(pctx, psp, ns, workers)
	return ns
}

// fill computes the distance triangle and average of ns, which scatterAll
// built from s. A pair of two aliased parts copies its distance from s's
// triangle; every other pair is computed, by one of two inner loops chosen
// by mode. Where pruning runs (binned EMD) the children's PMFs are packed
// into one block and each row fills in place through the fill kernel
// (emdRow), which gives distOf's bits; an aliased row copies its entries
// against aliased parts and hands the runs between them to the kernel.
// Elsewhere — Exact mode, the non-EMD metrics and the unpruned oracle of
// the prune differentials — the fresh pairs are listed and computed
// through distOf. Either way the average reduces serially in canonical
// slot order. ctx and psp are the probe's span context and span.
func (s *matState) fill(ctx context.Context, psp *telemetry.Span, ns *matState, workers int) {
	e := s.e
	k, nk := len(s.parts), len(ns.parts)
	n := nk * (nk - 1) / 2
	nd := make([]float64, n)
	parent, aliased := ns.parent, ns.aliased
	canCopy := s.dist != nil
	copied := 0
	if canCopy {
		na := 0
		for _, a := range aliased {
			if a {
				na++
			}
		}
		copied = na * (na - 1) / 2
	}
	fresh := n - copied
	_, esp := telemetry.StartSpan(ctx, "emd")
	if e.prune {
		bins := e.cfg.Bins
		pmfs := packPMFs(ns.reps, bins)
		parforeach(nk-1, workers, func(i int) {
			if s.canceled() {
				return
			}
			m := tri(nk, i, i+1)
			row := nd[m : m+nk-1-i]
			if !canCopy || !aliased[i] {
				emdRow(pmfs, bins, i, i+1, e.unit, row)
				return
			}
			pi := int(parent[i])
			for j := i + 1; j < nk; {
				if aliased[j] {
					row[j-i-1] = s.dist[tri(k, pi, int(parent[j]))]
					j++
					continue
				}
				end := j + 1
				for end < nk && !aliased[end] {
					end++
				}
				emdRow(pmfs, bins, i, j, e.unit, row[j-i-1:end-i-1])
				j = end
			}
		})
	} else {
		missing := make([]pairRef, 0, fresh)
		m := 0
		for i := 0; i < nk; i++ {
			for j := i + 1; j < nk; j++ {
				if canCopy && aliased[i] && aliased[j] {
					nd[m] = s.dist[tri(k, int(parent[i]), int(parent[j]))]
				} else {
					missing = append(missing, pairRef{int32(m), int32(i), int32(j)})
				}
				m++
			}
		}
		parfill(len(missing), workers, func(lo, hi int) {
			for x, t := range missing[lo:hi] {
				if x&(ctxCheckStride-1) == ctxCheckStride-1 && s.canceled() {
					return
				}
				nd[t.slot] = e.distOf(ns.reps[t.i].data, ns.reps[t.j].data)
			}
		})
	}
	esp.SetInt("pairs", int64(fresh))
	esp.End()
	if fresh > 0 {
		e.pairs.misses.Add(int64(fresh))
		e.tel.computed(int64(fresh))
	}
	e.copiedAcct(int64(copied))
	_, rsp := telemetry.StartSpan(ctx, "reduce")
	ns.dist, ns.avg = nd, avgOf(nd)
	rsp.SetInt("pairs", int64(n))
	rsp.End()
	psp.SetInt("pairs_fresh", int64(fresh))
	psp.SetInt("pairs_copied", int64(copied))
}

// single extracts part x as a standalone one-part state, the starting
// point of the unbalanced local split decision.
func (s *matState) single(x int) *matState {
	return &matState{e: s.e, parts: s.parts[x : x+1], reps: s.reps[x : x+1], dist: []float64{}, ctx: s.ctx}
}

// group reorders the state to put part x first — the grouping a child
// node of the unbalanced recursion evaluates against its local siblings —
// re-reducing the average in the new canonical order. No distance is
// recomputed.
func (s *matState) group(x int) *matState {
	k := len(s.parts)
	perm := make([]int, 0, k)
	perm = append(perm, x)
	for i := 0; i < k; i++ {
		if i != x {
			perm = append(perm, i)
		}
	}
	ns := &matState{
		e:     s.e,
		parts: make([]*partition.Partition, k),
		reps:  make([]*rep, k),
		dist:  make([]float64, k*(k-1)/2),
		ctx:   s.ctx,
	}
	for i, pi := range perm {
		ns.parts[i] = s.parts[pi]
		ns.reps[i] = s.reps[pi]
	}
	m := 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			a, b := perm[i], perm[j]
			if a > b {
				a, b = b, a
			}
			ns.dist[m] = s.dist[tri(k, a, b)]
			m++
		}
	}
	ns.avg = avgOf(ns.dist)
	return ns
}

// replaceFirst evaluates replacing part 0 of the group with the given
// children state (as produced by probing part 0 alone): the result is
// ordered [children..., siblings...]. Sibling–sibling pairs copy from
// this state's triangle and child–child pairs from the children state;
// only child–sibling pairs are fresh — the unbalanced sibling comparison
// as a pure delta. A child aliasing part 0's rep copies its sibling
// distances too.
func (s *matState) replaceFirst(children *matState) *matState {
	e := s.e
	k := len(s.parts)
	mch := len(children.parts)
	nk := mch + k - 1
	ns := &matState{
		e:     e,
		parts: make([]*partition.Partition, 0, nk),
		reps:  make([]*rep, 0, nk),
		ctx:   s.ctx,
	}
	ns.parts = append(append(ns.parts, children.parts...), s.parts[1:]...)
	ns.reps = append(append(ns.reps, children.reps...), s.reps[1:]...)
	nd := make([]float64, nk*(nk-1)/2)
	fresh := 0
	m := 0
	for i := 0; i < nk; i++ {
		for j := i + 1; j < nk; j++ {
			switch {
			case j < mch: // child–child
				nd[m] = children.dist[tri(mch, i, j)]
			case i >= mch: // sibling–sibling
				nd[m] = s.dist[tri(k, i-mch+1, j-mch+1)]
			case ns.reps[i].id == s.reps[0].id: // aliased child–sibling
				nd[m] = s.dist[tri(k, 0, j-mch+1)]
			default: // child–sibling: the only fresh distances
				nd[m] = e.distOf(ns.reps[i].data, ns.reps[j].data)
				fresh++
			}
			m++
		}
	}
	if fresh > 0 {
		e.pairs.misses.Add(int64(fresh))
		e.tel.computed(int64(fresh))
	}
	e.copiedAcct(int64(len(nd) - fresh))
	ns.dist = nd
	ns.avg = avgOf(nd)
	return ns
}

// finalBlock is the slot count of finalAvg's one reused buffer: 512 KB.
const finalBlock = 1 << 16

// finalAvg is the average pairwise distance of a search's final parts,
// given their reps, computed without keeping their triangle. It walks the
// triangle's slots block by block, at most block at a time: each block's
// rows (or row pieces) fill in parallel under Config.Parallelism into one
// reused buffer, then the block is added to a running sum in slot order.
// So every distance is added in avgOf's order over the full triangle, and
// the result has its bits. Where pruning runs the rows go through the
// fill kernel, elsewhere through distOf. Every pair counts as computed.
// The result is meaningless once ctx is done; the fill stops promptly.
func (e *Evaluator) finalAvg(ctx context.Context, reps []*rep, block int) float64 {
	k := len(reps)
	n := k * (k - 1) / 2
	if n == 0 {
		return 0
	}
	bins := e.cfg.Bins
	var pmfs []float64
	if e.prune {
		pmfs = packPMFs(reps, bins)
	}
	_, esp := telemetry.StartSpan(ctx, "emd")
	defer esp.End()
	esp.SetInt("pairs", int64(n))
	e.pairs.misses.Add(int64(n))
	e.tel.computed(int64(n))
	// A piece is the run of one row that falls in the current block.
	type piece struct{ i, j, off, n int }
	var pieces []piece
	buf := make([]float64, min(n, block))
	sum := 0.0
	i, j := 0, 1 // the next block's first pair
	for m := 0; m < n; m += block {
		if ctx.Err() != nil {
			return 0
		}
		b := buf[:min(block, n-m)]
		pieces = pieces[:0]
		for off := 0; off < len(b); {
			run := min(k-j, len(b)-off)
			pieces = append(pieces, piece{i, j, off, run})
			off += run
			if j += run; j == k {
				i++
				j = i + 1
			}
		}
		parforeach(len(pieces), e.cfg.Parallelism, func(x int) {
			pc := pieces[x]
			out := b[pc.off : pc.off+pc.n]
			if pmfs != nil {
				emdRow(pmfs, bins, pc.i, pc.j, e.unit, out)
				return
			}
			ri := reps[pc.i].data
			for y := range out {
				if y&(ctxCheckStride-1) == ctxCheckStride-1 && ctx.Err() != nil {
					return
				}
				out[y] = e.distOf(ri, reps[pc.j+y].data)
			}
		})
		for _, v := range b {
			sum += v
		}
	}
	return sum / float64(n)
}

// packPMFs copies the reps' PMFs, bins values each, into one contiguous
// row-major block: the fill kernel's input.
func packPMFs(reps []*rep, bins int) []float64 {
	pmfs := make([]float64, len(reps)*bins)
	for i, r := range reps {
		copy(pmfs[i*bins:(i+1)*bins], r.data)
	}
	return pmfs
}

// emdRow is the fill kernel of the binned-EMD triangles: it sets out[x]
// to the EMD between rows i and j0+x of the packed PMF block pmfs, for
// every x in [0, len(out)). Each pair runs emd.PMFDistance's operations
// in its order — cum += p−q and total += |cum| per bin, then total·unit —
// so every distance has PMFDistance's bits; there is no multiply-add to
// fuse. Four pairs share each pass over the bins: row i is read once for
// all four, and their four independent add chains overlap.
func emdRow(pmfs []float64, bins, i, j0 int, unit float64, out []float64) {
	p := pmfs[i*bins : (i+1)*bins]
	x := 0
	for ; x+4 <= len(out); x += 4 {
		j := (j0 + x) * bins
		q0 := pmfs[j : j+bins][:len(p)]
		q1 := pmfs[j+bins : j+2*bins][:len(p)]
		q2 := pmfs[j+2*bins : j+3*bins][:len(p)]
		q3 := pmfs[j+3*bins : j+4*bins][:len(p)]
		var c0, c1, c2, c3, t0, t1, t2, t3 float64
		for b, pb := range p {
			c0 += pb - q0[b]
			c1 += pb - q1[b]
			c2 += pb - q2[b]
			c3 += pb - q3[b]
			t0 += math.Abs(c0)
			t1 += math.Abs(c1)
			t2 += math.Abs(c2)
			t3 += math.Abs(c3)
		}
		out[x], out[x+1], out[x+2], out[x+3] = t0*unit, t1*unit, t2*unit, t3*unit
	}
	for ; x < len(out); x++ {
		j := (j0 + x) * bins
		q := pmfs[j : j+bins][:len(p)]
		cum, total := 0.0, 0.0
		for b, pb := range p {
			cum += pb - q[b]
			total += math.Abs(cum)
		}
		out[x] = total * unit
	}
}

// parforeach runs fn(i) for every i in [0, n) across at most `workers`
// goroutines via a shared work counter; inline when workers <= 1.
func parforeach(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
