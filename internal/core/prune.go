package core

import (
	"context"

	"fairrank/internal/emd"
	"fairrank/internal/partition"
	"fairrank/internal/telemetry"
)

// This file implements the branch-and-bound pruning cascade (DESIGN.md
// §9), which runs wherever its bound kernels apply — binned histograms
// under MetricEMD, the default mode (Evaluator.prune). The paper's greedy choosers and exhaustive solvers only
// ever consult a candidate partitioning's average pairwise EMD through
// order comparisons — argmax over a candidate scan, or "does it beat the
// running best". The cascade brackets each candidate's average with the
// fixed-point kernels of internal/emd ([lo, hi] guaranteed to contain the
// engine's float result, quantization error included) and evaluates
// exactly only the candidates whose interval can still win the
// comparison. Every decision the algorithms emit — chosen attributes,
// trace averages, final unfairness — comes from an exact evaluation, so
// pruned and unpruned runs are bit-identical; the differential suite
// pins this across every registered algorithm.
//
// Accounting follows a conservation law: a candidate's pair-slot count
// nk·(nk−1)/2 is fixed by its partition structure, and every slot lands
// in exactly one of {computed, cache hit, copied, pruned}. Pruning moves
// slots between the buckets but never changes the per-candidate total,
// which the accounting tests pin by comparing pruned and unpruned runs.

const (
	// pruneKernelMinParts is the child-part count below which a candidate
	// scan skips the bound kernel and evaluates exactly right away: tiny
	// triangles cost less than the bound would, and routing them through
	// the exact path keeps small unit-test workloads exercising it.
	pruneKernelMinParts = 48
	// cacheBypassPairs is the pair count above which a pruned final
	// average skips the shared pair cache entirely: at that size the
	// per-pair mutex+map traffic dominates the distance arithmetic
	// (pairCache.put was 65% of the unbalanced Table 2 profile), and a
	// terminal average has no later consumer for the cached entries.
	cacheBypassPairs = 1 << 16
	// exhaustiveBoundMinParts is the candidate part count above which the
	// exhaustive solvers bound before evaluating. Below it the exact
	// evaluation is mostly cache hits and beats the kernel.
	exhaustiveBoundMinParts = 24
)

// pruneScratch is the reusable buffer set of one bound computation.
type pruneScratch struct {
	rows [][]int64
	col  []int64
}

func (e *Evaluator) getScratch() *pruneScratch {
	if v := e.boundScratch.Get(); v != nil {
		return v.(*pruneScratch)
	}
	return &pruneScratch{}
}

func (e *Evaluator) putScratch(ps *pruneScratch) { e.boundScratch.Put(ps) }

// copiedAcct records n triangle entries copied by a delta path, in both
// the always-on run counter and the telemetry mirror.
func (e *Evaluator) copiedAcct(n int64) {
	e.copied.Add(n)
	e.tel.pairsCopied.Add(n)
}

// prunedAcct records n pair slots skipped by the cascade.
func (e *Evaluator) prunedAcct(n int64) {
	e.pruned.Add(n)
	e.tel.pairsPruned.Add(n)
}

// worstChooser returns the greedy attribute chooser for the evaluator's
// mode: the pruned scan where the bound kernels apply, the unpruned
// worstAttribute otherwise (Exact mode, non-EMD metrics).
func (e *Evaluator) worstChooser() chooser {
	if e.prune {
		return worstAttributePruned
	}
	return worstAttribute
}

// scatterAll runs the scatter-split pass of a probe — every part split on
// attr — without any distance work, returning the splits and the total
// child count.
func (s *matState) scatterAll(attr int) ([]splitPart, int) {
	_, ssp := telemetry.StartSpan(s.ctx, "split")
	splits := make([]splitPart, len(s.parts))
	for i := range s.parts {
		splits[i] = s.e.scatterSplit(s.reps[i], s.parts[i], attr)
	}
	nk := 0
	for i := range splits {
		nk += len(splits[i].children)
	}
	ssp.SetInt("parents", int64(len(s.parts)))
	ssp.End()
	return splits, nk
}

// boundOfSplits brackets the average pairwise distance of the state that
// exactProbe would build from splits, via the fixed-point kernel over the
// children's quantized CDFs. ok is false when any rep lacks a quantized
// CDF (non-finite payload — never the case for histogram PMFs, but the
// bound refuses rather than guesses).
func (s *matState) boundOfSplits(splits []splitPart) (lo, hi float64, ok bool) {
	e := s.e
	ps := e.getScratch()
	defer e.putScratch(ps)
	rows := ps.rows[:0]
	for i := range splits {
		for _, r := range splits[i].reps {
			if r.qcdf == nil {
				ps.rows = rows
				return 0, 0, false
			}
			rows = append(rows, r.qcdf)
		}
	}
	ps.rows = rows
	lo, hi, ps.col = emd.FixedAvgInterval(rows, e.unit, emd.FixedScale, ps.col)
	e.tel.boundProbes.Inc()
	e.tel.boundWidth.Set(hi - lo)
	return lo, hi, true
}

// exactProbe is probe's exact-fill half over precomputed splits, with a
// leaner inner loop: rows of the fresh triangle are filled in place under
// parforeach — no per-pair work list (whose append-driven growth was 40%
// of the balanced Table 2 profile as runtime.growslice memmove). It runs
// only where pruning does (binned EMD), so the children's PMFs are packed
// into one block and every fresh row goes through the fill kernel
// (emdRow), which gives distOf's bits. Distances and accounting are
// identical to probe: aliased×aliased pairs copy from this state's
// triangle, everything else is computed, and the average reduces serially
// in canonical slot order — bit-identical results.
func (s *matState) exactProbe(attr int, splits []splitPart, nk, workers int) *matState {
	if s.canceled() {
		return s
	}
	e := s.e
	pctx, psp := telemetry.StartSpan(s.ctx, "probe")
	psp.SetInt("attribute", int64(attr))
	k := len(s.parts)
	ns := &matState{
		e:     e,
		parts: make([]*partition.Partition, 0, nk),
		reps:  make([]*rep, 0, nk),
		ctx:   s.ctx,
	}
	parent := make([]int32, 0, nk)
	aliased := make([]bool, 0, nk)
	nAliased := 0
	for i := range splits {
		ns.parts = append(ns.parts, splits[i].children...)
		ns.reps = append(ns.reps, splits[i].reps...)
		for range splits[i].children {
			parent = append(parent, int32(i))
			aliased = append(aliased, splits[i].aliased)
			if splits[i].aliased {
				nAliased++
			}
		}
	}
	psp.SetInt("parts", int64(nk))
	n := nk * (nk - 1) / 2
	nd := make([]float64, n)
	canCopy := s.dist != nil
	bins := e.cfg.Bins
	_, esp := telemetry.StartSpan(pctx, "emd")
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
		// An aliased row copies its entries against aliased parts from
		// this state's triangle; the runs between them go to the kernel.
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
	copied := 0
	if canCopy {
		copied = nAliased * (nAliased - 1) / 2
	}
	fresh := n - copied
	if fresh > 0 {
		e.pairs.misses.Add(int64(fresh))
		e.tel.computed(int64(fresh))
	}
	e.copiedAcct(int64(copied))
	esp.SetInt("pairs", int64(fresh))
	esp.End()
	ns.dist = nd
	_, rsp := telemetry.StartSpan(pctx, "reduce")
	ns.avg = avgOf(nd)
	rsp.SetInt("pairs", int64(n))
	rsp.End()
	psp.SetInt("pairs_fresh", int64(fresh))
	psp.SetInt("pairs_copied", int64(copied))
	psp.End()
	return ns
}

// probeLean is probe (scatter + exact fill + reduce) through the lean
// exactProbe path; used by the random choosers where pruning runs — a
// single random candidate offers nothing to prune, but the allocation-free
// fill still applies.
func (s *matState) probeLean(attr, workers int) *matState {
	if s.canceled() {
		return s
	}
	s.e.tel.probes.Inc()
	splits, nk := s.scatterAll(attr)
	return s.exactProbe(attr, splits, nk, workers)
}

// worstAttributePruned is worstAttribute under the pruning cascade. Phase
// one scatters every candidate and brackets large ones with the
// fixed-point kernel (small ones evaluate exactly right away). Phase two
// takes maxLo — the highest candidate lower bound, where exactified
// candidates contribute their exact average — and skips every candidate
// whose upper bound is strictly below it: such a candidate's float
// average is provably below some other candidate's, so the strict->
// earliest-index argmax cannot select it, not even on a tie. Survivors
// are evaluated exactly in scan order; the returned state is always an
// exact evaluation, so downstream decisions and traces are bit-identical
// to the unpruned scan.
func worstAttributePruned(s *matState, attrs []int) (int, *matState) {
	e := s.e
	p := e.cfg.Parallelism
	outer := p
	if outer > len(attrs) {
		outer = len(attrs)
	}
	inner := 1
	if outer >= 1 && p > outer {
		inner = p / outer
	}
	src := s
	sctx, sp := telemetry.StartSpan(s.ctx, "scan")
	if sp != nil {
		sp.SetInt("attrs", int64(len(attrs)))
		sp.SetInt("parts", int64(len(s.parts)))
		cp := *s
		cp.ctx = sctx
		src = &cp
	}
	type cand struct {
		splits []splitPart
		nk     int
		lo, hi float64
		state  *matState
	}
	cands := make([]cand, len(attrs))
	parforeach(len(attrs), outer, func(x int) {
		c := &cands[x]
		c.splits, c.nk = src.scatterAll(attrs[x])
		if src.canceled() {
			return
		}
		e.tel.probes.Inc()
		if len(attrs) > 1 && c.nk >= pruneKernelMinParts {
			if lo, hi, ok := src.boundOfSplits(c.splits); ok {
				c.lo, c.hi = lo, hi
				return
			}
		}
		c.state = src.exactProbe(attrs[x], c.splits, c.nk, inner)
		c.lo, c.hi = c.state.avg, c.state.avg
	})
	sp.End()
	if sp != nil {
		for x := range cands {
			if st := cands[x].state; st != nil && st != s {
				st.ctx = s.ctx
			}
		}
	}
	if s.canceled() {
		// Structurally valid return; the algorithm layer sees ctx.Err()
		// and discards it, mirroring probe's cancellation contract.
		return attrs[0], s
	}
	maxLo := cands[0].lo
	for x := 1; x < len(cands); x++ {
		if cands[x].lo > maxLo {
			maxLo = cands[x].lo
		}
	}
	for x := range cands {
		c := &cands[x]
		if c.state != nil {
			continue
		}
		if c.hi < maxLo {
			c.splits = nil
			e.prunedAcct(int64(c.nk) * int64(c.nk-1) / 2)
			continue
		}
		e.tel.boundExactified.Inc()
		c.state = s.exactProbe(attrs[x], c.splits, c.nk, p)
		if s.canceled() {
			return attrs[0], s
		}
	}
	best := -1
	for x := range cands {
		if cands[x].state == nil {
			continue
		}
		if best < 0 || cands[x].state.avg > cands[best].state.avg {
			best = x
		}
	}
	if best < 0 {
		return attrs[0], s
	}
	return attrs[best], cands[best].state
}

// avgPairwiseAuto is AvgPairwise over search parts (rows of the
// evaluator's row space) that bypasses the shared pair cache for very
// large terminal averages when pruning is on. The bypass computes every
// distance directly (same distOf, same canonical serial reduction), so the
// value is bit-identical; only the accounting split differs — all slots
// count as computed instead of hit-or-computed — which the slot
// conservation law still balances.
func (e *Evaluator) avgPairwiseAuto(parts []*partition.Partition) float64 {
	k := len(parts)
	if k < 2 {
		return 0
	}
	reps := make([]*rep, k)
	for i, p := range parts {
		reps[i] = e.rowRep(p)
	}
	if !e.prune || k*(k-1)/2 < cacheBypassPairs {
		return e.avgReps(reps)
	}
	return e.avgRepsDirect(reps)
}

// avgRepsDirect is avgReps without cache lookups or stores: rows of the
// triangle fill in place under parforeach through the fill kernel (it
// runs only where pruning does), then reduce serially in canonical order.
func (e *Evaluator) avgRepsDirect(reps []*rep) float64 {
	k := len(reps)
	n := k * (k - 1) / 2
	if n == 0 {
		return 0
	}
	d := make([]float64, n)
	bins := e.cfg.Bins
	pmfs := packPMFs(reps, bins)
	parforeach(k-1, e.cfg.Parallelism, func(i int) {
		m := tri(k, i, i+1)
		emdRow(pmfs, bins, i, i+1, e.unit, d[m:m+k-1-i])
	})
	e.pairs.misses.Add(int64(n))
	e.tel.computed(int64(n))
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	return sum / float64(n)
}

// unfairnessBounded is Unfairness with cooperative cancellation and
// branch-and-bound for the exhaustive solvers: when pruning is on and the
// candidate is large enough, its average is bracketed first, and a
// candidate whose upper bound is ≤ best is skipped (the solvers keep a
// candidate only on u > best, and u ≤ hi ≤ best makes that impossible —
// ties included, so the earliest-wins selection is preserved exactly).
// skipped=true means the candidate cannot beat best and u is meaningless.
func (e *Evaluator) unfairnessBounded(ctx context.Context, pt *partition.Partitioning, best float64) (u float64, skipped bool) {
	if pt == nil {
		return 0, false
	}
	k := len(pt.Parts)
	if k < 2 {
		return 0, false
	}
	reps := make([]*rep, k)
	for i, p := range pt.Parts {
		if i&(ctxCheckStride-1) == ctxCheckStride-1 && ctx.Err() != nil {
			return 0, false
		}
		reps[i] = e.repFor(p)
	}
	if e.prune && k >= exhaustiveBoundMinParts {
		if _, hi, ok := e.boundOfReps(reps); ok && hi <= best {
			e.prunedAcct(int64(k) * int64(k-1) / 2)
			return 0, true
		}
	}
	return e.avgRepsCtx(ctx, reps), false
}

// boundOfReps brackets the average pairwise distance of a rep set via the
// fixed-point kernel; ok is false when any rep lacks a quantized CDF.
func (e *Evaluator) boundOfReps(reps []*rep) (lo, hi float64, ok bool) {
	ps := e.getScratch()
	defer e.putScratch(ps)
	rows := ps.rows[:0]
	for _, r := range reps {
		if r.qcdf == nil {
			ps.rows = rows
			return 0, 0, false
		}
		rows = append(rows, r.qcdf)
	}
	ps.rows = rows
	lo, hi, ps.col = emd.FixedAvgInterval(rows, e.unit, emd.FixedScale, ps.col)
	e.tel.boundProbes.Inc()
	e.tel.boundWidth.Set(hi - lo)
	return lo, hi, true
}
