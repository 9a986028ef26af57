package rerank

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"fairrank/internal/dataset"
	"fairrank/internal/marketplace"
)

// This file implements the "fair-topk" re-ranker: FA*IR (Zehlike et al.,
// "FA*IR: A Fair Top-k Ranking Algorithm", CIKM 2017), generalized from
// the paper's binary protected/non-protected setting to every group of a
// protected attribute via the dataset's per-attribute code column.
//
// The contract: a page of size k is fair at significance alpha when, for
// every prefix length i <= k and every group g with pool share p_g, the
// number of group-g members in the prefix is at least
//
//	m_g(i) = min{ m : F(m; i, p_g) > alpha_c }
//
// where F is the binomial CDF and alpha_c is the multiple-testing-
// corrected significance: testing all k prefixes each at level alpha
// rejects a genuinely fair Bernoulli(p) process far more often than
// alpha, so alpha_c is lowered until the family-wise failure probability
// of the whole table is back at alpha (FA*IR §4.2, found here by binary
// search over an exact dynamic program rather than the paper's tables).
//
// Construction walks positions 1..k picking the highest-scored head
// among the per-group queues whose placement keeps the remaining table
// satisfiable (an earliest-deadline-first safety check). This subsumes
// the classic "take the best protected candidate when the prefix test
// would fail" rule and extends it soundly to multiple simultaneous
// tables: whenever the tables are jointly satisfiable at all — checked
// up front — the produced page satisfies every prefix constraint.

// ErrInfeasible reports that no page of the requested size can satisfy
// the fairness tables — the pool lacks members of some group, or the
// per-group minimum counts jointly exceed a prefix length.
var ErrInfeasible = errors.New("rerank: fairness constraints infeasible for this pool")

// adjustMaxK caps the page size for which the significance adjustment
// binary search runs; the search costs O(k²) per probe and the FA*IR
// paper itself publishes tables only to k = 400. Larger pages use the
// unadjusted alpha, whose tables are at least as strict (more
// conservative, never less fair).
const adjustMaxK = 512

// FairTopK is the "fair-topk" re-ranker, FA*IR: re-rank pool into a
// page of min(k, len(pool)) candidates satisfying the per-group
// minimum-count tables at significance p.Alpha (DefaultAlpha when 0).
func FairTopK(ds *dataset.Dataset, attr int, pool []marketplace.RankedWorker, k int, p Params) ([]marketplace.RankedWorker, error) {
	alpha := p.Alpha
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	if alpha <= 0 || alpha >= 1 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("rerank: alpha %v outside (0,1)", alpha)
	}
	n := pageSize(k, len(pool))
	sp, err := splitPool(ds, attr, pool, n)
	if err != nil {
		return nil, err
	}
	return fairTopKPage(sp, n, alpha)
}

// fairTopKPage places a page of n candidates from a split pool under the
// tables at significance alpha.
func fairTopKPage(sp split, n int, alpha float64) ([]marketplace.RankedWorker, error) {
	queues := sp.queues
	// One minimum-count table per group present in the pool, from its
	// pool share. Groups absent from the pool have share 0 and need no
	// table (m ≡ 0).
	tables := make([][]int, len(queues))
	for g, cnt := range sp.counts {
		if cnt == 0 {
			continue
		}
		share := float64(cnt) / float64(sp.size)
		tables[g] = AdjustedMTable(n, share, alpha)
	}

	// Joint feasibility: every prefix must have room for all minimum
	// counts, and every group's pool must cover its final minimum.
	for i := 1; i <= n; i++ {
		req := 0
		for _, tbl := range tables {
			if tbl != nil {
				req += tbl[i]
			}
		}
		if req > i {
			return nil, fmt.Errorf("%w: prefix %d requires %d protected members", ErrInfeasible, i, req)
		}
	}
	for g, tbl := range tables {
		if tbl != nil && tbl[n] > sp.counts[g] {
			return nil, fmt.Errorf("%w: group %d has %d candidates, table requires %d",
				ErrInfeasible, g, sp.counts[g], tbl[n])
		}
	}

	counts := make([]int, len(queues))
	// req[d] = total minimum-count deficit of prefix d under the current
	// counts; recomputed per position (page sizes are small — the whole
	// construction is O(k²·groups) worst case).
	req := make([]int, n+1)
	out := make([]marketplace.RankedWorker, 0, n)
	for pos := 1; pos <= n; pos++ {
		for d := pos; d <= n; d++ {
			req[d] = 0
			for g, tbl := range tables {
				if tbl != nil && tbl[d] > counts[g] {
					req[d] += tbl[d] - counts[g]
				}
			}
		}
		// safe reports whether placing group h now leaves every later
		// prefix satisfiable: after this position, prefix d has d-pos
		// slots left to cover its remaining deficit.
		safe := func(h int) bool {
			for d := pos; d <= n; d++ {
				r := req[d]
				if tbl := tables[h]; tbl != nil && tbl[d] > counts[h] {
					r--
				}
				if r > d-pos {
					return false
				}
			}
			return true
		}
		pick := -1
		for g, q := range queues {
			if len(q) == 0 {
				continue
			}
			if pick >= 0 && marketplace.ByScore(q[0], queues[pick][0]) > 0 {
				continue
			}
			if safe(g) {
				pick = g
			}
		}
		if pick < 0 {
			return nil, ErrInfeasible
		}
		c := queues[pick][0]
		queues[pick] = queues[pick][1:]
		counts[pick]++
		out = append(out, marketplace.RankedWorker{Worker: c.Worker, Score: c.Score, Rank: pos})
	}
	return out, nil
}

// MTable returns the FA*IR minimum-count table for page size k, group
// share p and significance alpha, unadjusted: entry i (1-based; entry 0
// is always 0) is the smallest m with binomial CDF F(m; i, p) > alpha.
// The binomial distribution is maintained incrementally across prefix
// lengths — one O(i) convolution step per row, O(k²) total. It takes only
// sums and rounded products, so the table is the same on every
// architecture.
func MTable(k int, p, alpha float64) []int {
	tbl := make([]int, k+1)
	pmf := make([]float64, 1, k+1)
	pmf[0] = 1
	m := 0
	for i := 1; i <= k; i++ {
		pmf = append(pmf, 0)
		for c := i; c >= 1; c-- {
			// Each product is rounded before the add: no multiply-add fuses.
			pmf[c] = float64(pmf[c]*(1-p)) + float64(pmf[c-1]*p)
		}
		pmf[0] *= 1 - p
		// F(m; i, p) only shrinks as i grows, so m never steps back.
		cdf := 0.0
		for c := 0; c <= m; c++ {
			cdf += pmf[c]
		}
		for cdf <= alpha && m < i {
			m++
			cdf += pmf[m]
		}
		tbl[i] = m
	}
	return tbl
}

// FailureProb returns the probability that a fair Bernoulli(p) process of
// length len(table)-1 violates the minimum-count table at some prefix —
// the family-wise rejection probability the significance adjustment
// drives down to alpha. Exact dynamic program over (prefix, count).
func FailureProb(p float64, table []int) float64 {
	k := len(table) - 1
	f := make([]float64, 1, k+1)
	f[0] = 1
	for i := 1; i <= k; i++ {
		f = append(f, 0)
		for c := i; c >= 1; c-- {
			f[c] = float64(f[c]*(1-p)) + float64(f[c-1]*p) // rounded, as in MTable
		}
		f[0] *= 1 - p
		for c := 0; c < table[i] && c <= i; c++ {
			f[c] = 0
		}
	}
	success := 0.0
	for _, v := range f {
		success += v
	}
	if success > 1 {
		success = 1
	}
	return 1 - success
}

// AdjustAlpha returns the multiple-testing-corrected significance for a
// (k, p, alpha) table family: the largest alpha_c <= alpha whose table's
// family-wise failure probability (FailureProb) stays within alpha.
// Monotonicity makes binary search exact to float precision. Page sizes
// beyond adjustMaxK skip the search and keep alpha.
func AdjustAlpha(k int, p, alpha float64) float64 {
	if k > adjustMaxK {
		return alpha
	}
	lo, hi := 0.0, alpha
	for iter := 0; iter < 50 && hi-lo > alpha*1e-9; iter++ {
		mid := (lo + hi) / 2
		if FailureProb(p, MTable(k, p, mid)) <= alpha {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// tableKey identifies one cached adjusted table by the exact float bits
// of its parameters — shares repeat exactly across requests against the
// same pool, so bitwise identity is the right interning key.
type tableKey struct {
	k    int
	p, a uint64
}

// tableCacheCap bounds the adjusted-table cache. α comes from the
// client, so the distinct keys are unbounded; past the cap a table is
// computed and not stored. Tables are a pure function of their key, so
// pages do not change.
const tableCacheCap = 1024

var tableCache = struct {
	sync.RWMutex
	m map[tableKey][]int
}{m: map[tableKey][]int{}}

var tableHits, tableMisses atomic.Int64

// AdjustedMTable returns the significance-adjusted minimum-count table
// for (k, p, alpha), computing and caching it on first use — the cache
// is what keeps fair-topk inside the serving-latency budget, exactly
// like the fixed-point quantization intern hooks of the pruning cascade.
// Once tableCacheCap tables are cached, new ones are computed on every
// use. The returned slice may be the shared cached copy: treat it as
// read-only.
func AdjustedMTable(k int, p, alpha float64) []int {
	key := tableKey{k, math.Float64bits(p), math.Float64bits(alpha)}
	tableCache.RLock()
	tbl, ok := tableCache.m[key]
	tableCache.RUnlock()
	if ok {
		tableHits.Add(1)
		return tbl
	}
	tableMisses.Add(1)
	tbl = MTable(k, p, AdjustAlpha(k, p, alpha))
	tableCache.Lock()
	if prev, dup := tableCache.m[key]; dup {
		tbl = prev // keep the first computation on a race
	} else if len(tableCache.m) < tableCacheCap {
		tableCache.m[key] = tbl
	}
	tableCache.Unlock()
	return tbl
}

// TableCacheStats reports the adjusted-table cache's hit/miss counters
// and current size, for the exposition-time telemetry gauges.
func TableCacheStats() (hits, misses, size int64) {
	tableCache.RLock()
	size = int64(len(tableCache.m))
	tableCache.RUnlock()
	return tableHits.Load(), tableMisses.Load(), size
}
