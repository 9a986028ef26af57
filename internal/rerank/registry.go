package rerank

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"fairrank/internal/dataset"
	"fairrank/internal/marketplace"
	"fairrank/internal/telemetry"
)

// Params carries the per-algorithm knobs of a re-rank request. Every
// re-ranker reads only the fields it understands and ignores the rest,
// so one JSON body shape serves every re-ranker (POST /v1/rank).
type Params struct {
	// Epsilon is exposure-parity's score-sacrifice bound (see Options).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Alpha is fair-topk's significance level in (0,1): the probability
	// that a fair Bernoulli process would be rejected by the per-prefix
	// minimum-count tests. 0 selects DefaultAlpha.
	Alpha float64 `json:"alpha,omitempty"`
	// Seed seeds the "randomized" re-ranker's jitter; the same seed
	// always reproduces the same page.
	Seed uint64 `json:"seed,omitempty"`
	// Spread is the "randomized" re-ranker's jitter width as a fraction
	// of the pool's score range, in [0, 1]. 0 selects DefaultSpread.
	Spread float64 `json:"spread,omitempty"`
}

// DefaultAlpha is the fair-topk significance used when Params.Alpha is 0,
// matching the FA*IR paper's running example.
const DefaultAlpha = 0.1

// Func is one re-ranker: given the full candidate pool (every
// Worker a row of ds, in any order), it returns a fairness-constrained
// page of min(k, len(pool)) candidates with fresh ranks 1..n (k <= 0
// selects the whole pool). Implementations must be deterministic: two
// identical calls return identical pages.
type Func func(ds *dataset.Dataset, attr int, pool []marketplace.RankedWorker, k int, p Params) ([]marketplace.RankedWorker, error)

// rerankers maps each re-ranker name to its function. It is fixed at
// initialisation and only read after, so it needs no lock.
var rerankers = map[string]Func{
	"det-cons":    detReranker(detCons),
	"det-greedy":  detReranker(detGreedy),
	"det-relaxed": detReranker(detRelaxed),
	"exposure-parity": func(ds *dataset.Dataset, attr int, pool []marketplace.RankedWorker, k int, p Params) ([]marketplace.RankedWorker, error) {
		return exposureParity(ds, attr, pool, pageSize(k, len(pool)), Options{Epsilon: p.Epsilon})
	},
	"fair-topk":  FairTopK,
	"randomized": Randomized,
}

// rerankerNames holds rerankers' names, sorted.
var rerankerNames = func() []string {
	out := make([]string, 0, len(rerankers))
	for name := range rerankers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}()

// Lookup resolves a re-ranker by name; the error lists the re-ranker
// names so HTTP handlers can surface it directly.
func Lookup(name string) (Func, error) {
	fn, ok := rerankers[name]
	if !ok {
		return nil, fmt.Errorf("rerank: unknown re-ranker %q (registered: %s)",
			name, strings.Join(rerankerNames, ", "))
	}
	return fn, nil
}

// Rerankers returns the re-ranker names, sorted, in a slice the caller may
// keep and modify.
func Rerankers() []string { return slices.Clone(rerankerNames) }

// Telemetry series exposed by Serve.
const (
	// MetricServes counts re-rank requests per algorithm (label
	// "algorithm"); failed requests are counted in MetricErrors too.
	MetricServes = "fairrank_rerank_serves_total"
	// MetricErrors counts re-rank requests that returned an error.
	MetricErrors = "fairrank_rerank_errors_total"
	// MetricServeSeconds is the per-algorithm serve latency histogram.
	MetricServeSeconds = "fairrank_rerank_seconds"
	// MetricTableCacheHits / MetricTableCacheMisses expose the fair-topk
	// minimum-count table cache (gauges read at exposition time).
	MetricTableCacheHits   = "fairrank_rerank_table_cache_hits"
	MetricTableCacheMisses = "fairrank_rerank_table_cache_misses"
	MetricTableCacheSize   = "fairrank_rerank_table_cache_size"
)

// serveBuckets spans 1µs..~33s: re-rank pages are orders of magnitude
// faster than audits, so the default 100µs-floor latency buckets would
// collapse every healthy request into the first bucket.
func serveBuckets() []float64 { return telemetry.ExpBuckets(1e-6, 2, 25) }

// algoLabel returns the telemetry label for a re-ranker name.
func algoLabel(name string) telemetry.Label {
	return telemetry.Label{Key: "algorithm", Value: name}
}

// Serve is the instrumented serving entry point: it resolves name,
// re-ranks, and records the per-algorithm request counter and latency
// histogram on reg (nil reg disables telemetry at the usual nil-safe
// cost). This is what POST /v1/rank and the load generator call.
func Serve(reg *telemetry.Registry, name string, ds *dataset.Dataset, attr int, pool []marketplace.RankedWorker, k int, p Params) ([]marketplace.RankedWorker, error) {
	fn, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	out, err := fn(ds, attr, pool, k, p)
	reg.Histogram(MetricServeSeconds, serveBuckets(), algoLabel(name)).ObserveSince(start)
	reg.Counter(MetricServes, algoLabel(name)).Inc()
	if err != nil {
		reg.Counter(MetricErrors, algoLabel(name)).Inc()
	}
	return out, err
}

// PreregisterMetrics creates every re-rank series on reg at boot so
// /metrics shows the full surface before the first request, mirroring
// core.PreregisterMetrics. The fair-topk table cache is exposed through
// exposition-time gauge functions — the cache lives in this package and
// should not be mirrored on the serve path.
func PreregisterMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	for _, name := range Rerankers() {
		reg.Counter(MetricServes, algoLabel(name))
		reg.Counter(MetricErrors, algoLabel(name))
		reg.Histogram(MetricServeSeconds, serveBuckets(), algoLabel(name))
	}
	reg.GaugeFunc(MetricTableCacheHits, func() float64 {
		h, _, _ := TableCacheStats()
		return float64(h)
	})
	reg.GaugeFunc(MetricTableCacheMisses, func() float64 {
		_, m, _ := TableCacheStats()
		return float64(m)
	})
	reg.GaugeFunc(MetricTableCacheSize, func() float64 {
		_, _, n := TableCacheStats()
		return float64(n)
	})
}

// pageSize clamps a requested page size to the pool: k <= 0 or k past the
// pool selects the whole pool.
func pageSize(k, pool int) int {
	if k <= 0 || k > pool {
		return pool
	}
	return k
}
