package rerank

import (
	"fmt"
	"sync"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/marketplace"
	"fairrank/internal/scoring"
	"fairrank/internal/simulate"
	"fairrank/internal/telemetry"
)

// benchPool is the shared serving-benchmark population: large enough that
// re-ranking does real work (every re-ranker splits or scans the whole
// pool to place its page), biased enough that every re-ranker has
// something to fix, and built once per process because RankBy over 5000
// workers dwarfs a single serve call.
const (
	benchWorkers = 5000
	benchSeed    = 97
	benchK       = 100
)

var benchFixture struct {
	sync.Once
	ds   *dataset.Dataset
	attr int
	pool []marketplace.RankedWorker
	err  error
}

func benchPool(tb testing.TB) (*dataset.Dataset, int, []marketplace.RankedWorker) {
	tb.Helper()
	f := &benchFixture
	f.Do(func() {
		ds, err := simulate.PaperWorkers(benchWorkers, benchSeed)
		if err != nil {
			f.err = err
			return
		}
		// Overlapping score ranges keep the pool feasible for every
		// re-ranker while still clustering the disadvantaged group low.
		fn, err := scoring.NewRuleFunc("bench-bias", benchSeed, []scoring.Rule{
			{When: scoring.AttrIs("Gender", "Male"), Lo: 0.3, Hi: 1.0},
			{When: scoring.AttrIs("Gender", "Female"), Lo: 0.0, Hi: 0.7},
		})
		if err != nil {
			f.err = err
			return
		}
		f.ds, f.attr = ds, ds.Schema().ProtectedIndex("Gender")
		f.pool = marketplace.RankBy(ds, fn, 0)
	})
	if f.err != nil {
		tb.Fatal(f.err)
	}
	return f.ds, f.attr, f.pool
}

// BenchmarkRerankServe times one page serve per registered re-ranker
// through the registry (the POST /v1/rank path: Lookup + telemetry + the
// algorithm), plus a path=direct baseline that calls the page-bounded
// exposure-parity function the registry entry calls. The rerank gate of
// `make gates` holds the registry path to within 5% of direct — the
// registry wrapper and nil-registry telemetry must stay free.
func BenchmarkRerankServe(b *testing.B) {
	ds, attr, pool := benchPool(b)
	p := Params{Epsilon: 1}

	b.Run("algo=exposure-parity/path=direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exposureParity(ds, attr, pool, benchK, Options{Epsilon: p.Epsilon}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, name := range Rerankers() {
		b.Run(fmt.Sprintf("algo=%s/path=registry", name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Serve(nil, name, ds, attr, pool, benchK, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// p99Budget is the serving latency budget: the slowest 1% of re-rank
// requests over a 5000-candidate pool must finish within a quarter
// second. The healthy path runs in microseconds–milliseconds, so this is
// a two-orders-of-magnitude regression tripwire, not a tight bound — it
// exists to catch an accidental O(n²) scan or a lock convoy on the
// fair-topk table cache, and it reads the same telemetry histogram
// production reads, so a Quantile regression here is a /metrics
// regression too.
const p99Budget = 0.25 // seconds

// TestRerankP99Budget is the load generator: for every registered
// re-ranker it issues 480 serve requests with page sizes cycling through
// production-shaped values, records each into the per-algorithm
// fairrank_rerank_seconds histogram exactly as POST /v1/rank does, and
// asserts the histogram's conservative p99 (the bucket upper bound)
// stays within budget.
func TestRerankP99Budget(t *testing.T) {
	if testing.Short() {
		t.Skip("load generation in -short mode")
	}
	ds, attr, pool := benchPool(t)
	reg := telemetry.NewRegistry()
	PreregisterMetrics(reg)

	pageSizes := []int{10, 25, 50, 100}
	const rounds = 120 // x4 page sizes = 480 requests per algorithm
	for _, name := range Rerankers() {
		for i := 0; i < rounds; i++ {
			for _, k := range pageSizes {
				if _, err := Serve(reg, name, ds, attr, pool, k, Params{Epsilon: 1}); err != nil {
					t.Fatalf("%s k=%d: %v", name, k, err)
				}
			}
		}
	}
	for _, name := range Rerankers() {
		h := reg.Histogram(MetricServeSeconds, serveBuckets(), algoLabel(name))
		if got, want := h.Count(), int64(rounds*len(pageSizes)); got != want {
			t.Fatalf("%s: histogram holds %d observations, want %d", name, got, want)
		}
		p99 := h.Quantile(0.99)
		t.Logf("%s: p99 <= %.6fs over %d requests", name, p99, rounds*len(pageSizes))
		if p99 > p99Budget {
			t.Errorf("%s: p99 %.4fs exceeds the %.2fs budget", name, p99, p99Budget)
		}
		if errs := reg.Counter(MetricErrors, algoLabel(name)).Value(); errs != 0 {
			t.Errorf("%s: %d errors recorded", name, errs)
		}
	}
}
