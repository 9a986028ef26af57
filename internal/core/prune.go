package core

import (
	"context"

	"fairrank/internal/emd"
	"fairrank/internal/partition"
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
// pins this across every registered algorithm. The greedy side is the
// bound step of worstAttribute (algorithms.go); the exhaustive side is
// unfairnessBounded below.
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
		if _, hi, ok := e.bound(reps); ok && hi <= best {
			e.prunedAcct(int64(k) * int64(k-1) / 2)
			return 0, true
		}
	}
	return e.avgRepsCtx(ctx, reps), false
}

// bound brackets the average pairwise distance of a rep set with the
// fixed-point kernel over the reps' quantized CDFs. ok is false when any
// rep lacks one (a non-finite payload — never the case for histogram PMFs,
// but the bound refuses rather than guesses).
func (e *Evaluator) bound(reps []*rep) (lo, hi float64, ok bool) {
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
