// Package core implements the paper's contribution: the Most Unfair
// Partitioning problem (Definitions 1 and 2) and the algorithms that
// navigate the exponential space of partitionings — balanced and unbalanced
// (Algorithms 1 and 2), their random-attribute baselines r-balanced and
// r-unbalanced, the all-attributes full split, and an exhaustive solver
// with an explicit enumeration budget.
//
// Unfairness of a partitioning P under scoring function f is the average
// pairwise Earth Mover's Distance between the per-partition score
// histograms: unfairness(P, f) = avg_{i<j} EMD(h(p_i,f), h(p_j,f)).
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"fairrank/internal/dataset"
	"fairrank/internal/emd"
	"fairrank/internal/histogram"
	"fairrank/internal/partition"
	"fairrank/internal/scoring"
	"fairrank/internal/telemetry"
)

// Config tunes how unfairness is measured.
type Config struct {
	// Bins is the number of equal-width histogram bins over [0,1].
	// Defaults to 10.
	Bins int
	// Ground selects the EMD ground distance (score units by default).
	Ground emd.Ground
	// Metric selects the histogram distance; MetricEMD (the paper's
	// choice) by default. Non-EMD metrics ignore Ground.
	Metric emd.Metric
	// Parallelism bounds the goroutines used for candidate-attribute
	// scans and large pairwise-distance computations. Defaults to
	// GOMAXPROCS. 1 forces serial evaluation. Results are bit-identical
	// at every parallelism level: distances are computed concurrently but
	// always reduced in canonical pair order.
	Parallelism int
	// MinPartitionSize blocks splits that would create a partition with
	// fewer workers than this, both to protect against sampling noise in
	// tiny groups and as a k-anonymity guard when audit results are
	// published. The default (1) reproduces the paper's behavior.
	MinPartitionSize int
	// Exact computes the bin-free EMD between the partitions' empirical
	// score distributions (L1 distance of empirical CDFs) instead of the
	// binned histogram EMD. More faithful, somewhat slower; ignores Bins,
	// Ground and Metric.
	Exact bool
	// Metrics, when non-nil, receives engine telemetry: EMD-evaluation
	// and cache hit/miss counters, probe counts, and cache-occupancy
	// gauges (aggregate and per shard). Several evaluators may share one
	// registry — counters accumulate across them, gauges reflect the
	// most recently synced evaluator. Nil disables metrics at the cost
	// of a predicted nil-check on the already-batched accounting sites.
	Metrics *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.Bins <= 0 {
		c.Bins = 10
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.MinPartitionSize < 1 {
		c.MinPartitionSize = 1
	}
	return c
}

// Evaluator computes and caches unfairness measurements for one (dataset,
// scoring function) pair. It is safe for concurrent use: all caches are
// sharded, so parallel candidate probes populate and reuse them instead
// of serializing on a single mutex.
type Evaluator struct {
	ds     *dataset.Dataset
	f      scoring.Func
	cfg    Config
	scores []float64
	unit   float64 // EMD ground distance between adjacent bins
	binIdx []int   // precomputed histogram bin per worker (binned mode)

	reps  *repCache
	pairs *pairCache
	tel   engineMetrics

	// rows is the row space the searching algorithms scatter (rows.go),
	// built by the first search; rowsOnce guards it.
	rowsOnce sync.Once
	rows     *rowSpace

	// prune gates the branch-and-bound pruning cascade (prune.go): on in
	// exactly the mode its bound kernels cover — binned histograms under
	// MetricEMD. It is not a knob: the cascade changes no emitted bit, so
	// the mode alone decides. Tests in this package clear it to run the
	// unpruned oracle side of the prune differentials.
	prune bool
	// pruned and copied are always-on run-accounting counters (unlike the
	// nil-gated telemetry mirrors): pair slots the cascade skipped, and
	// triangle entries the delta paths copied. The session layer reports
	// their per-run deltas; together with pair-cache hits and misses they
	// satisfy the slot conservation law pinned by the accounting tests.
	pruned atomic.Int64
	copied atomic.Int64
	// boundScratch pools the fixed-point kernel's per-candidate scratch
	// (column buffer + row-pointer slice) so concurrent bound probes stay
	// allocation-free in steady state.
	boundScratch sync.Pool
}

// NewEvaluator precomputes all worker scores for f and returns an
// Evaluator. The scoring function must return values in [0,1]; out-of-range
// values are clamped into the edge bins by the histogram.
func NewEvaluator(ds *dataset.Dataset, f scoring.Func, cfg Config) (*Evaluator, error) {
	if ds == nil || ds.N() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if f == nil {
		return nil, fmt.Errorf("core: nil scoring function")
	}
	cfg = cfg.withDefaults()
	e := &Evaluator{
		ds:     ds,
		f:      f,
		cfg:    cfg,
		scores: scoring.Scores(ds, f),
		reps:   newRepCache(),
		pairs:  newPairCache(),
		tel:    engineMetricsFor(cfg.Metrics),
	}
	switch cfg.Ground {
	case emd.GroundIndex:
		if cfg.Bins > 1 {
			e.unit = 1 / float64(cfg.Bins-1)
		}
	default:
		e.unit = 1 / float64(cfg.Bins)
	}
	if !cfg.Exact {
		e.binIdx = histogram.MustNew(cfg.Bins, 0, 1).BinIndices(e.scores)
	}
	e.prune = !cfg.Exact && cfg.Metric == emd.MetricEMD
	if e.prune {
		// Quantize every rep's CDF at intern time, before publication, so
		// the bound kernels always find qcdf present and race-free.
		e.reps.quant = func(data []float64) []int64 {
			q, ok := emd.FixedCDF(data, emd.FixedScale)
			if !ok {
				return nil // non-finite payload: bound paths fall back to exact
			}
			return q
		}
	}
	return e, nil
}

// Dataset returns the dataset under audit.
func (e *Evaluator) Dataset() *dataset.Dataset { return e.ds }

// Func returns the scoring function under audit.
func (e *Evaluator) Func() scoring.Func { return e.f }

// Config returns the effective (defaulted) configuration.
func (e *Evaluator) Config() Config { return e.cfg }

// Scores returns the precomputed score column. Callers must not mutate it.
func (e *Evaluator) Scores() []float64 { return e.scores }

// Attrs returns all protected attribute indices, the default attribute set
// for every algorithm.
func (e *Evaluator) Attrs() []int {
	out := make([]int, len(e.ds.Schema().Protected))
	for i := range out {
		out[i] = i
	}
	return out
}

// Histogram builds (uncached) the score histogram of a partition; exported
// for reporting and figures.
func (e *Evaluator) Histogram(p *partition.Partition) *histogram.Histogram {
	h := histogram.MustNew(e.cfg.Bins, 0, 1)
	for _, i := range p.Indices {
		h.Add(e.scores[i])
	}
	return h
}

// buildData materializes the comparison payload of a partition given its
// row indices: the normalized PMF (binned mode) or the sorted score
// sample (Exact mode).
func (e *Evaluator) buildData(indices []int) []float64 {
	if e.cfg.Exact {
		s := make([]float64, len(indices))
		for k, i := range indices {
			s[k] = e.scores[i]
		}
		sort.Float64s(s)
		return s
	}
	counts := make([]float64, e.cfg.Bins)
	for _, i := range indices {
		counts[e.binIdx[i]]++
	}
	return histogram.NormalizeCounts(counts)
}

// repFor interns a partition's representation under its canonical
// constraint key, returning the dense-handle rep. p's Indices are workers.
func (e *Evaluator) repFor(p *partition.Partition) *rep {
	return e.reps.internKey(p.Key(), func() []float64 { return e.buildData(p.Indices) })
}

// rowRep is repFor for a search partition, whose Indices are rows of the
// evaluator's row space. Both share the string-keyed layer: a key's
// payload is the same whichever row form built it.
func (e *Evaluator) rowRep(p *partition.Partition) *rep {
	return e.reps.internKey(p.Key(), func() []float64 { return e.rowData(p.Indices) })
}

// dist computes the configured distance between two PMFs.
func (e *Evaluator) dist(p, q []float64) float64 {
	switch e.cfg.Metric {
	case emd.MetricL1:
		return emd.L1(p, q)
	case emd.MetricTV:
		return emd.L1(p, q) / 2
	case emd.MetricChiSquare:
		return emd.ChiSquare(p, q)
	case emd.MetricJS:
		return emd.JensenShannon(p, q)
	case emd.MetricKS:
		return emd.KolmogorovSmirnov(p, q)
	case emd.MetricHellinger:
		return emd.Hellinger(p, q)
	default:
		return emd.PMFDistance(p, q, e.unit)
	}
}

// distOf computes the configured distance between two representation
// payloads (mode-aware), without touching any cache.
func (e *Evaluator) distOf(p, q []float64) float64 {
	if e.cfg.Exact {
		return emd.Exact1DSorted(p, q)
	}
	return e.dist(p, q)
}

func packPair(a, b uint32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// pairOf returns the distance between two interned representations, with
// symmetric caching in the sharded pair cache.
func (e *Evaluator) pairOf(ra, rb *rep) float64 {
	key := packPair(ra.id, rb.id)
	if d, ok := e.pairs.get(key); ok {
		e.tel.cacheHits.Inc()
		return d
	}
	d := e.distOf(ra.data, rb.data)
	e.pairs.put(key, d)
	e.pairs.misses.Add(1)
	e.tel.computed(1)
	return d
}

// PairDistance returns the configured distance between two partitions'
// score distributions, with symmetric caching.
func (e *Evaluator) PairDistance(a, b *partition.Partition) float64 {
	return e.pairOf(e.repFor(a), e.repFor(b))
}

// parallelFillThreshold is the number of missing pair distances above
// which AvgPairwise computes them concurrently.
const parallelFillThreshold = 256

// AvgPairwise computes unfairness(P, f) — the average pairwise distance
// over all unordered pairs of parts. Fewer than two partitions yield 0.
//
// Distances missing from the pair cache are computed concurrently under
// Config.Parallelism, but the reduction always runs serially in (i, j)
// pair order, so the result is bit-identical at every parallelism level
// (and the cache is populated and accounted either way).
func (e *Evaluator) AvgPairwise(parts []*partition.Partition) float64 {
	k := len(parts)
	if k < 2 {
		return 0
	}
	reps := make([]*rep, k)
	for i, p := range parts {
		reps[i] = e.repFor(p)
	}
	return e.avgReps(reps)
}

// pairRef identifies one missing pair: its slot in the flat triangle
// plus the two representation indices.
type pairRef struct {
	slot, i, j int32
}

// avgReps is AvgPairwise over already-interned representations.
func (e *Evaluator) avgReps(reps []*rep) float64 {
	return e.avgRepsCtx(nil, reps)
}

// avgRepsCtx is avgReps with cooperative cancellation: when ctx is non-nil
// both the cache scan and the parallel missing-pair fill poll it every
// ctxCheckStride pairs and abandon the remaining work. The returned value
// is only meaningful when ctx was not cancelled; distances computed before
// the cancellation still land in the shared cache.
func (e *Evaluator) avgRepsCtx(ctx context.Context, reps []*rep) float64 {
	k := len(reps)
	n := k * (k - 1) / 2
	d := make([]float64, n)
	var missing []pairRef
	m := 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if v, ok := e.pairs.get(packPair(reps[i].id, reps[j].id)); ok {
				d[m] = v
			} else {
				missing = append(missing, pairRef{int32(m), int32(i), int32(j)})
			}
			m++
			if ctx != nil && m&(ctxCheckStride-1) == 0 && ctx.Err() != nil {
				return 0
			}
		}
	}
	e.tel.cacheHits.Add(int64(n - len(missing)))
	if len(missing) > 0 {
		parfill(len(missing), e.cfg.Parallelism, func(lo, hi int) {
			for x, t := range missing[lo:hi] {
				if ctx != nil && x&(ctxCheckStride-1) == ctxCheckStride-1 && ctx.Err() != nil {
					return
				}
				ri, rj := reps[t.i], reps[t.j]
				v := e.distOf(ri.data, rj.data)
				d[t.slot] = v
				e.pairs.put(packPair(ri.id, rj.id), v)
			}
		})
		e.pairs.misses.Add(int64(len(missing)))
		e.tel.computed(int64(len(missing)))
	}
	sum := 0.0
	for _, v := range d {
		sum += v
	}
	return sum / float64(n)
}

// parfill runs fn over the contiguous chunks of [0, n), fanning out to at
// most `workers` goroutines; small workloads run inline. Chunks are
// disjoint, so fn may write to shared slices without synchronization.
func parfill(n, workers int, fn func(lo, hi int)) {
	if workers > n/parallelFillThreshold {
		workers = n / parallelFillThreshold
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Unfairness evaluates a whole Partitioning (Definition 2).
func (e *Evaluator) Unfairness(pt *partition.Partitioning) float64 {
	if pt == nil {
		return 0
	}
	return e.AvgPairwise(pt.Parts)
}

// unfairnessCtx is Unfairness with cooperative cancellation, used by the
// exhaustive solvers so a cancelled search aborts mid-candidate instead of
// finishing a potentially enormous pairwise evaluation. The value is only
// meaningful when ctx was not cancelled.
func (e *Evaluator) unfairnessCtx(ctx context.Context, pt *partition.Partitioning) float64 {
	if pt == nil {
		return 0
	}
	k := len(pt.Parts)
	if k < 2 {
		return 0
	}
	reps := make([]*rep, k)
	for i, p := range pt.Parts {
		if i&(ctxCheckStride-1) == ctxCheckStride-1 && ctx.Err() != nil {
			return 0
		}
		reps[i] = e.repFor(p)
	}
	return e.avgRepsCtx(ctx, reps)
}

// CacheStats reports cache sizes, used by the ablation benchmarks:
// distinct partition representations materialized, pair distances held in
// the shared cache, and total distance computations (cache misses plus
// probe-local incremental evaluations).
func (e *Evaluator) CacheStats() (histograms, pairs, misses int) {
	return e.reps.count(), e.pairs.len(), int(e.pairs.misses.Load())
}
