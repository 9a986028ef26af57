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
	"fmt"
	"math"
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
	// Parallelism bounds the goroutines used for the per-worker passes
	// (NewEvaluator's scoring and binning, and the count behind the
	// collapsed rows), candidate-attribute scans and large
	// pairwise-distance computations.
	// Defaults to GOMAXPROCS. 1 forces serial evaluation. Results are
	// bit-identical at every parallelism level: each per-worker pass
	// splits the workers into contiguous blocks that write only their own
	// slots or integer counts, the exact average has no order, and the
	// pair path computes distances concurrently but always reduces them
	// in canonical pair order. Only a scoring.BlockScorer is called from
	// several goroutines; any other scoring function is called from one,
	// in worker order.
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
	// Metrics, when non-nil, receives engine telemetry: EMD-evaluation,
	// probe and run counters. Several evaluators may share one registry;
	// their counters accumulate. Nil disables metrics at the cost of a
	// predicted nil-check on the already-batched accounting sites.
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

// Evaluator computes unfairness measurements for one (dataset, scoring
// function) pair. It is safe for concurrent use: parallel candidate probes
// share only immutable state and atomic counters.
type Evaluator struct {
	ds   *dataset.Dataset
	f    scoring.Func
	cfg  Config
	unit float64 // EMD ground distance between adjacent bins
	bin  []int32 // histogram bin per worker (binned mode)

	// scores is the score column: built by NewEvaluator in Exact mode,
	// whose payloads are score samples, and on first use otherwise.
	scoresOnce sync.Once
	scores     []float64

	// reps counts the reps handed out (newRep); Run reports its delta.
	reps atomic.Uint32
	tel  engineMetrics

	// computed counts the pair distances the pair path computed, and
	// served those the exhaustive solvers' memo supplied instead; Run
	// reports the deltas of both.
	computed, served atomic.Int64

	// ident reports whether averages take the exact sorted-column identity
	// (average.go), and den is its unit's denominator: binned mode under
	// EMD, L1 and TV. Other modes take the pair path.
	ident bool
	den   uint64

	// rows is the row space the searching algorithms split (rows.go),
	// built by the first search; rowsOnce guards it.
	rowsOnce sync.Once
	rows     *rowSpace
}

// scoreBlock is the number of workers a binned NewEvaluator scores per
// pass into a reused buffer: 32 KB, so each block is binned while it is
// still in the first-level cache. The per-worker passes split the workers
// into runs of whole blocks, one run per goroutine (parRuns).
const scoreBlock = 4096

// minRun is the fewest workers a per-worker pass gives a goroutine of its
// own. Scoring 8,192 workers in two runs took longer than in one, and
// 32,768 in two runs 0.8 of one, on a 2-vCPU host (BenchmarkIngest's
// population).
const minRun = 4 * scoreBlock

// NewEvaluator scores every worker once under f and returns an Evaluator.
// In binned mode it keeps only each worker's histogram bin, scoring block
// by block into a buffer per goroutine; the float score column is built
// again on first use of Scores or Histogram. Exact mode keeps the score
// column. The scoring function must return values in [0,1]; finite
// out-of-range values are clamped into the edge bins by the histogram,
// and a NaN or ±Inf score is an error naming the lowest-index such worker,
// in every mode and at every parallelism.
func NewEvaluator(ds *dataset.Dataset, f scoring.Func, cfg Config) (*Evaluator, error) {
	if ds == nil || ds.N() == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if f == nil {
		return nil, fmt.Errorf("core: nil scoring function")
	}
	cfg = cfg.withDefaults()
	e := &Evaluator{
		ds:  ds,
		f:   f,
		cfg: cfg,
		tel: newEngineMetrics(cfg.Metrics),
	}
	n := ds.N()
	workers := cfg.Parallelism
	if _, ok := f.(scoring.BlockScorer); !ok {
		workers = 1
	}
	var err error
	if cfg.Exact {
		e.scores = make([]float64, n)
		err = parRuns(n, minRun, workers, func(_, lo, hi int) error {
			blk := e.scores[lo:hi]
			scoring.ScoreInto(ds, f, lo, blk)
			return checkFinite(ds, f, lo, blk)
		})
	} else {
		e.bin = make([]int32, n)
		h := histogram.MustNew(cfg.Bins, 0, 1)
		err = parRuns(n, minRun, workers, func(_, lo, hi int) error {
			buf := make([]float64, min(hi-lo, scoreBlock))
			for ; lo < hi; lo += len(buf) {
				blk := buf[:min(len(buf), hi-lo)]
				scoring.ScoreInto(ds, f, lo, blk)
				if err := checkFinite(ds, f, lo, blk); err != nil {
					return err
				}
				h.BinIndices(blk, e.bin[lo:])
			}
			return nil
		})
	}
	if err != nil {
		return nil, err
	}
	switch cfg.Ground {
	case emd.GroundIndex:
		if cfg.Bins > 1 {
			e.unit = 1 / float64(cfg.Bins-1)
		}
	default:
		e.unit = 1 / float64(cfg.Bins)
	}
	e.den, e.ident = identityDenominator(cfg)
	return e, nil
}

// parRuns splits [0, n) into runs of whole scoring blocks, at most
// workers of them and each at least least long, runs fn(run, lo, hi) on
// each and returns the error of the lowest run that failed. Run 0 runs on
// the calling goroutine, every other run in a goroutine of its own; one
// run is fn(0, 0, n). The runs are contiguous and ascending, so a pass
// whose runs each stop at their first failure reports the failure of the
// lowest index, as a serial pass would.
func parRuns(n, least, workers int, fn func(run, lo, hi int) error) error {
	runs := max(1, min(workers, n/least))
	if runs == 1 {
		return fn(0, 0, n)
	}
	blocks := (n + scoreBlock - 1) / scoreBlock
	bound := func(r int) int { return min(n, r*blocks/runs*scoreBlock) }
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for r := 1; r < runs; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = fn(r, bound(r), bound(r+1))
		}()
	}
	errs[0] = fn(0, 0, bound(1))
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// checkFinite returns an error naming the lowest-index worker of the
// block starting at worker lo whose score is NaN or ±Inf.
func checkFinite(ds *dataset.Dataset, f scoring.Func, lo int, scores []float64) error {
	for i, s := range scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("core: scoring function %q gave worker %q the score %v; scores must be finite", f.Name(), ds.ID(lo+i), s)
		}
	}
	return nil
}

// Dataset returns the dataset under audit.
func (e *Evaluator) Dataset() *dataset.Dataset { return e.ds }

// Func returns the scoring function under audit.
func (e *Evaluator) Func() scoring.Func { return e.f }

// Config returns the effective (defaulted) configuration.
func (e *Evaluator) Config() Config { return e.cfg }

// Scores returns the score column, the same bits NewEvaluator binned. In
// binned mode the first call scores every worker again; later calls return
// the same slice. Callers must not mutate it.
func (e *Evaluator) Scores() []float64 {
	e.scoresOnce.Do(func() {
		if e.scores == nil {
			e.scores = scoring.Scores(e.ds, e.f)
		}
	})
	return e.scores
}

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
	scores := e.Scores()
	for _, i := range p.Indices {
		h.Add(scores[i])
	}
	return h
}

// buildData materializes the comparison payload of a partition given its
// worker indices: the binned column (payload) or the sorted score sample
// (Exact mode).
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
		counts[e.bin[i]]++
	}
	return e.payload(counts)
}

// payload turns one part's bin counts, whole numbers, into its binned
// rep: the PMF (histogram.NormalizeCounts) under every metric but
// MetricEMD, whose rep is the CDF, computed in place. Either way each
// value is one correctly rounded division c/n of integers: c is the bin's
// count (PMF) or the cumulative count (CDF), and n the part's size. A
// part with no workers takes the uniform convention, 1/bins and
// (b+1)/bins.
func (e *Evaluator) payload(counts []float64) []float64 {
	if e.cfg.Metric != emd.MetricEMD {
		return histogram.NormalizeCounts(counts)
	}
	n := 0.0
	for _, c := range counts {
		n += c
	}
	cum := 0.0
	for b, c := range counts {
		if n == 0 {
			counts[b] = float64(b+1) / float64(len(counts))
			continue
		}
		cum += c
		counts[b] = cum / n
	}
	return counts
}

// distOf computes the configured distance between two representation
// payloads, without touching any cache: the bin-free EMD of two sorted
// samples in Exact mode; in binned mode, unit·Σ_b |F_b − G_b| over two
// CDFs under MetricEMD and the configured metric over two PMFs otherwise.
func (e *Evaluator) distOf(p, q []float64) float64 {
	if e.cfg.Exact {
		return emd.Exact1DSorted(p, q)
	}
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
		// The conversion rounds the product, so no caller that inlines
		// this function fuses it with an add into one multiply-add.
		return float64(emd.L1(p, q) * e.unit)
	}
}

func packPair(a, b uint32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// countPairs records n freshly computed pair distances.
func (e *Evaluator) countPairs(n int64) {
	e.computed.Add(n)
	e.tel.emdEvals.Add(n)
}

// PairDistance returns the configured distance between two partitions'
// score distributions.
func (e *Evaluator) PairDistance(a, b *partition.Partition) float64 {
	e.countPairs(1)
	return e.distOf(e.buildData(a.Indices), e.buildData(b.Indices))
}

// AvgPairwise computes unfairness(P, f) — the average pairwise distance
// over all unordered pairs of parts (average.go). Fewer than two
// partitions yield 0. The result is bit-identical at every parallelism
// level.
func (e *Evaluator) AvgPairwise(parts []*partition.Partition) float64 {
	reps := make([]*rep, len(parts))
	for i, p := range parts {
		reps[i] = &rep{data: e.buildData(p.Indices)}
	}
	return e.average(nil, reps, e.cfg.Parallelism)
}

// Unfairness evaluates a whole Partitioning (Definition 2).
func (e *Evaluator) Unfairness(pt *partition.Partitioning) float64 {
	if pt == nil {
		return 0
	}
	return e.AvgPairwise(pt.Parts)
}
