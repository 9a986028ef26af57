package rerank

import (
	"slices"
	"strings"
	"testing"

	"fairrank/internal/marketplace"
	"fairrank/internal/telemetry"
)

func TestRegistryHasAllFamilies(t *testing.T) {
	names := Rerankers()
	for _, want := range []string{"det-cons", "det-greedy", "det-relaxed", "exposure-parity", "fair-topk"} {
		if _, err := Lookup(want); err != nil {
			t.Errorf("%s not registered: %v", want, err)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Rerankers not sorted: %v", names)
		}
	}
}

func TestLookupErrorListsNames(t *testing.T) {
	_, err := Lookup("nope")
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	for _, name := range Rerankers() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("lookup error omits %q: %v", name, err)
		}
	}
}

func TestServeRecordsTelemetry(t *testing.T) {
	ds, attr, ranked := biasedRanking(t, 100, 20, 11)
	reg := telemetry.NewRegistry()
	PreregisterMetrics(reg)

	if _, err := Serve(reg, "exposure-parity", ds, attr, ranked, 10, Params{}); err != nil {
		t.Fatal(err)
	}
	label := algoLabel("exposure-parity")
	if got := reg.Counter(MetricServes, label).Value(); got != 1 {
		t.Fatalf("serves counter = %d, want 1", got)
	}
	if got := reg.Counter(MetricErrors, label).Value(); got != 0 {
		t.Fatalf("errors counter = %d, want 0", got)
	}
	h := reg.Histogram(MetricServeSeconds, serveBuckets(), label)
	if h.Count() != 1 {
		t.Fatalf("latency histogram count = %d, want 1", h.Count())
	}

	// A failing request counts as both a serve and an error.
	if _, err := Serve(reg, "exposure-parity", ds, 99, ranked, 10, Params{}); err == nil {
		t.Fatal("bad attribute accepted")
	}
	if got := reg.Counter(MetricServes, label).Value(); got != 2 {
		t.Fatalf("serves counter = %d, want 2", got)
	}
	if got := reg.Counter(MetricErrors, label).Value(); got != 1 {
		t.Fatalf("errors counter = %d, want 1", got)
	}

	// Unknown names fail before any counter exists to attribute them to.
	if _, err := Serve(reg, "nope", ds, attr, ranked, 10, Params{}); err == nil {
		t.Fatal("unknown re-ranker accepted")
	}
}

func TestServeNilRegistry(t *testing.T) {
	ds, attr, ranked := biasedRanking(t, 100, 20, 12)
	if _, err := Serve(nil, "det-cons", ds, attr, ranked, 10, Params{}); err != nil {
		t.Fatal(err)
	}
}

func TestTableCacheHits(t *testing.T) {
	// Earlier tests may have filled the cache to its cap, past which a
	// miss is not stored.
	resetTableCache()
	h0, m0, _ := TableCacheStats()
	// A parameter triple no other test uses, so the first call must miss
	// and the second must hit.
	AdjustedMTable(17, 0.123456789, 0.0987654321)
	AdjustedMTable(17, 0.123456789, 0.0987654321)
	h1, m1, size := TableCacheStats()
	if m1 != m0+1 {
		t.Fatalf("misses %d -> %d, want +1", m0, m1)
	}
	if h1 != h0+1 {
		t.Fatalf("hits %d -> %d, want +1", h0, h1)
	}
	if size < 1 {
		t.Fatalf("cache size %d", size)
	}
}

// resetTableCache empties the fair-topk table cache.
func resetTableCache() {
	tableCache.Lock()
	tableCache.m = map[tableKey][]int{}
	tableCache.Unlock()
}

// Alphas come from clients, so the table cache stops growing at its cap:
// serving past it computes tables without storing them, the size gauge
// stays at the cap, and every page equals the one served from a cached
// table.
func TestTableCacheCap(t *testing.T) {
	resetTableCache()
	t.Cleanup(resetTableCache)
	reg := telemetry.NewRegistry()
	PreregisterMetrics(reg)
	ds, attr, pool := overlapBiasedRanking(t, 200, 5)

	// Two Gender groups: each request with a fresh alpha adds two keys,
	// so these requests offer twice the cap.
	const requests = tableCacheCap
	serve := func(i int) []marketplace.RankedWorker {
		alpha := 0.01 + 0.19*float64(i)/requests
		page, err := Serve(reg, "fair-topk", ds, attr, pool, 10, Params{Alpha: alpha})
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		return page
	}
	pages := make([][]marketplace.RankedWorker, requests)
	for i := range pages {
		pages[i] = serve(i)
	}
	if got := reg.Snapshot().Gauges[MetricTableCacheSize]; got != tableCacheCap {
		t.Fatalf("table cache size gauge %v after %d keys, want the cap %d", got, 2*requests, tableCacheCap)
	}
	// Served in reverse from an empty cache, the pages uncached above are
	// cached now and the cached ones are not.
	resetTableCache()
	for i := requests - 1; i >= 0; i-- {
		if got := serve(i); !slices.Equal(got, pages[i]) {
			t.Fatalf("request %d: page %v, want %v", i, got, pages[i])
		}
	}
	if _, _, size := TableCacheStats(); size != tableCacheCap {
		t.Fatalf("table cache size %d, want the cap %d", size, tableCacheCap)
	}
}

func TestPageSize(t *testing.T) {
	cases := []struct{ k, pool, want int }{
		{0, 10, 10}, {-3, 10, 10}, {5, 10, 5}, {10, 10, 10}, {15, 10, 10},
	}
	for _, c := range cases {
		if got := pageSize(c.k, c.pool); got != c.want {
			t.Errorf("pageSize(%d, %d) = %d, want %d", c.k, c.pool, got, c.want)
		}
	}
}
