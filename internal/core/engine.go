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
// canonical-order reduction is the partitioning's unfairness. Evolving a
// state — splitting every part on a candidate attribute (balanced probe),
// or replacing one part by its children against its siblings (unbalanced
// decision) — computes only distances that touch changed parts; everything
// else is copied from the existing triangle. Child representations are
// derived in the same single pass that scatters the parent's rows
// (partition.SplitCodes over the row space of rows.go), so probing an
// attribute never re-touches the score column per child.
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
	dist  []float64 // upper triangle: pair (i,j), i<j, at tri(k,i,j); nil until materialized
	avg   float64
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

// newMatState interns the search parts' representations (their Indices are
// rows of the evaluator's row space) and materializes the full distance
// triangle (through the shared pair cache), establishing
// the running pairwise sum that later probes evolve by delta.
func newMatState(e *Evaluator, parts []*partition.Partition) *matState {
	k := len(parts)
	s := &matState{e: e, parts: parts, reps: make([]*rep, k)}
	for i, p := range parts {
		s.reps[i] = e.rowRep(p)
	}
	s.dist = make([]float64, k*(k-1)/2)
	m := 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			s.dist[m] = e.pairOf(s.reps[i], s.reps[j])
			m++
		}
	}
	s.avg = avgOf(s.dist)
	return s
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

// probe evaluates replacing every part with its children under attr — the
// balanced-round / candidate-attribute operation. Only distances touching
// changed parts are computed: a pair of two unchanged (aliased) parts
// copies its distance from this state's triangle. withDist=false skips
// the distance work entirely for callers that only need the final state
// (all-attributes); workers bounds the concurrent distance fill.
func (s *matState) probe(attr, workers int, withDist bool) *matState {
	if s.canceled() {
		// Return a structurally valid state so concurrent probeAll fan-outs
		// finish without nil checks; the caller sees ctx.Err() and discards.
		return s
	}
	e := s.e
	e.tel.probes.Inc()
	// Span phases: split (scatter pass), emd (fresh distance fill),
	// reduce (canonical-order average). Zero-cost when no tracer rides
	// the context; derived states keep s.ctx so later probes never
	// attach to this probe's ended span.
	pctx, psp := telemetry.StartSpan(s.ctx, "probe")
	psp.SetInt("attribute", int64(attr))
	k := len(s.parts)
	_, ssp := telemetry.StartSpan(pctx, "split")
	splits := make([]splitPart, k)
	for i := range s.parts {
		splits[i] = e.scatterSplit(s.reps[i], s.parts[i], attr)
	}
	ssp.SetInt("parents", int64(k))
	ssp.End()
	nk := 0
	for i := range splits {
		nk += len(splits[i].children)
	}
	ns := &matState{
		e:     e,
		parts: make([]*partition.Partition, 0, nk),
		reps:  make([]*rep, 0, nk),
		ctx:   s.ctx,
	}
	parent := make([]int32, 0, nk)
	aliased := make([]bool, 0, nk)
	for i := range splits {
		ns.parts = append(ns.parts, splits[i].children...)
		ns.reps = append(ns.reps, splits[i].reps...)
		for range splits[i].children {
			parent = append(parent, int32(i))
			aliased = append(aliased, splits[i].aliased)
		}
	}
	psp.SetInt("parts", int64(nk))
	if !withDist {
		psp.End()
		return ns
	}
	nd := make([]float64, nk*(nk-1)/2)
	var missing []pairRef
	m := 0
	for i := 0; i < nk; i++ {
		for j := i + 1; j < nk; j++ {
			if aliased[i] && aliased[j] && s.dist != nil {
				nd[m] = s.dist[tri(k, int(parent[i]), int(parent[j]))]
			} else {
				missing = append(missing, pairRef{int32(m), int32(i), int32(j)})
			}
			m++
		}
	}
	if len(missing) > 0 {
		_, esp := telemetry.StartSpan(pctx, "emd")
		parfill(len(missing), workers, func(lo, hi int) {
			for x, t := range missing[lo:hi] {
				if x&(ctxCheckStride-1) == ctxCheckStride-1 && s.canceled() {
					return
				}
				nd[t.slot] = e.distOf(ns.reps[t.i].data, ns.reps[t.j].data)
			}
		})
		esp.SetInt("pairs", int64(len(missing)))
		esp.End()
		e.pairs.misses.Add(int64(len(missing)))
		e.tel.computed(int64(len(missing)))
	}
	e.copiedAcct(int64(len(nd) - len(missing)))
	ns.dist = nd
	_, rsp := telemetry.StartSpan(pctx, "reduce")
	ns.avg = avgOf(nd)
	rsp.SetInt("pairs", int64(len(nd)))
	rsp.End()
	psp.SetInt("pairs_fresh", int64(len(missing)))
	psp.SetInt("pairs_copied", int64(len(nd)-len(missing)))
	psp.End()
	return ns
}

// probeAll probes every candidate attribute, fanning the scans across
// Config.Parallelism goroutines; leftover parallelism is handed to each
// probe's distance fill. Every probe's summation order is fixed, so the
// results are identical to a serial scan.
func (s *matState) probeAll(attrs []int) []*matState {
	out := make([]*matState, len(attrs))
	p := s.e.cfg.Parallelism
	outer := p
	if outer > len(attrs) {
		outer = len(attrs)
	}
	inner := 1
	if outer >= 1 && p > outer {
		inner = p / outer
	}
	// One "scan" span per round; the concurrent probes become its
	// children. Probing through a shallow copy whose ctx carries the
	// scan span keeps this state's ctx clean for subsequent rounds.
	src := s
	sctx, sp := telemetry.StartSpan(s.ctx, "scan")
	if sp != nil {
		sp.SetInt("attrs", int64(len(attrs)))
		sp.SetInt("parts", int64(len(s.parts)))
		cp := *s
		cp.ctx = sctx
		src = &cp
	}
	parforeach(len(attrs), outer, func(x int) {
		out[x] = src.probe(attrs[x], inner, true)
	})
	sp.End()
	if sp != nil {
		// Result states must not parent future spans under the ended
		// scan span (a cancelled probe returns src itself, hence the
		// second check).
		for _, st := range out {
			if st != nil && st != s {
				st.ctx = s.ctx
			}
		}
	}
	return out
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

// materialize fills the distance triangle of a state produced with
// withDist=false, computing rows concurrently when allowed. Rows fill in
// place, as exactProbe's do: no per-pair work list, which at the full
// split of the paper's population would outweigh the triangle itself.
// Where pruning runs (binned EMD) the rows go through the fill kernel.
func (s *matState) materialize(workers int) {
	if s.dist != nil {
		return
	}
	e := s.e
	k := len(s.parts)
	n := k * (k - 1) / 2
	s.dist = make([]float64, n)
	var pmfs []float64
	if e.prune {
		pmfs = packPMFs(s.reps, e.cfg.Bins)
	}
	_, esp := telemetry.StartSpan(s.ctx, "emd")
	parforeach(k-1, workers, func(i int) {
		if s.canceled() {
			return
		}
		m := tri(k, i, i+1)
		row := s.dist[m : m+k-1-i]
		if pmfs != nil {
			emdRow(pmfs, e.cfg.Bins, i, i+1, e.unit, row)
			return
		}
		ri := s.reps[i].data
		for x := range row {
			row[x] = e.distOf(ri, s.reps[i+1+x].data)
		}
	})
	esp.SetInt("pairs", int64(n))
	esp.End()
	e.pairs.misses.Add(int64(n))
	e.tel.computed(int64(n))
	_, rsp := telemetry.StartSpan(s.ctx, "reduce")
	s.avg = avgOf(s.dist)
	rsp.SetInt("pairs", int64(n))
	rsp.End()
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
