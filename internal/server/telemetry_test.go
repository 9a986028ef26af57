package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/store"
	"fairrank/internal/telemetry"
)

// scrape fetches /metrics and returns the exposition body.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts one sample's value from an exposition body; ok is
// false when the exact series line is absent.
func metricValue(body, series string) (float64, bool) {
	for _, line := range strings.Split(body, "\n") {
		if rest, found := strings.CutPrefix(line, series+" "); found {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				return 0, false
			}
			return v, true
		}
	}
	return 0, false
}

// TestMetricsEndpoint pins the scrape surface end to end: engine series
// are preregistered at boot, per-route counters and histograms appear
// after traffic, and an audit populates the engine counters through the
// server's shared registry. A served audit is binned EMD, whose exact
// average computes no pair distance, so it counts probes and runs.
func TestMetricsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)

	body := scrape(t, ts)
	if _, ok := metricValue(body, core.MetricEMDEvaluations); !ok {
		t.Fatalf("engine series %s not preregistered:\n%s", core.MetricEMDEvaluations, body)
	}
	if v, _ := metricValue(body, core.MetricEMDEvaluations); v != 0 {
		t.Errorf("engine counter nonzero before any audit: %v", v)
	}

	uploadDataset(t, ts, "crowd", 300)
	// Jobs validate weights against the schema ("Rating" is not an
	// observed attribute of the paper schema).
	runJob(t, ts.URL, map[string]any{
		"dataset": "crowd",
		"weights": map[string]float64{"LanguageTest": 1},
	})

	body = scrape(t, ts)
	if v, ok := metricValue(body, core.MetricProbes); !ok || v <= 0 {
		t.Errorf("%s = %v, %v; want > 0 after an audit", core.MetricProbes, v, ok)
	}
	if v, ok := metricValue(body, core.MetricEMDEvaluations); !ok || v != 0 {
		t.Errorf("%s = %v, %v; want 0 after a binned EMD audit", core.MetricEMDEvaluations, v, ok)
	}
	if v, ok := metricValue(body, core.MetricRuns); !ok || v != 1 {
		t.Errorf("%s = %v, %v; want 1", core.MetricRuns, v, ok)
	}
	// The engine keeps no rep cache, so it exports no occupancy gauges.
	if strings.Contains(body, "fairrank_engine_rep") {
		t.Errorf("scrape still carries rep-cache gauges:\n%s", body)
	}
	series := MetricHTTPRequests + `{code="202",route="POST /v1/jobs"}`
	if v, ok := metricValue(body, series); !ok || v != 1 {
		t.Errorf("%s = %v, %v; want 1", series, v, ok)
	}
	if !strings.Contains(body, "# TYPE "+MetricHTTPRequestSeconds+" histogram") {
		t.Errorf("missing histogram TYPE line for %s", MetricHTTPRequestSeconds)
	}
}

// TestMetricsMiddlewareConcurrent hammers one route from many goroutines
// while scraping concurrently, then pins the counted total and the
// histogram invariants (bucket monotonicity, count in the +Inf bucket).
// Run under -race this also proves the scrape path never tears.
func TestMetricsMiddlewareConcurrent(t *testing.T) {
	_, ts, _ := newTestServer(t)

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Get(ts.URL + "/healthz")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	// Scrape while traffic is in flight: counters must be monotone
	// across successive scrapes.
	series := MetricHTTPRequests + `{code="200",route="GET /healthz"}`
	last := 0.0
	for i := 0; i < 5; i++ {
		if v, ok := metricValue(scrape(t, ts), series); ok {
			if v < last {
				t.Fatalf("counter went backwards: %v after %v", v, last)
			}
			last = v
		}
	}
	wg.Wait()

	body := scrape(t, ts)
	if v, ok := metricValue(body, series); !ok || v != workers*perWorker {
		t.Fatalf("%s = %v, %v; want %d", series, v, ok, workers*perWorker)
	}

	// Histogram: cumulative buckets must be monotone, the +Inf bucket and
	// _count must equal the request total, and _sum must be positive.
	route := `route="GET /healthz"`
	var bucketVals []float64
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, MetricHTTPRequestSeconds+"_bucket{") && strings.Contains(line, route) {
			fields := strings.Fields(line)
			v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
			if err != nil {
				t.Fatalf("bad bucket line %q", line)
			}
			bucketVals = append(bucketVals, v)
		}
	}
	if len(bucketVals) == 0 {
		t.Fatalf("no histogram buckets for %s:\n%s", route, body)
	}
	for i := 1; i < len(bucketVals); i++ {
		if bucketVals[i] < bucketVals[i-1] {
			t.Fatalf("bucket counts not cumulative: %v", bucketVals)
		}
	}
	if inf := bucketVals[len(bucketVals)-1]; inf != workers*perWorker {
		t.Errorf("+Inf bucket = %v, want %d", inf, workers*perWorker)
	}
	if v, ok := metricValue(body, fmt.Sprintf("%s_count{%s}", MetricHTTPRequestSeconds, route)); !ok || v != workers*perWorker {
		t.Errorf("histogram _count = %v, %v; want %d", v, ok, workers*perWorker)
	}
	if v, ok := metricValue(body, fmt.Sprintf("%s_sum{%s}", MetricHTTPRequestSeconds, route)); !ok || v <= 0 {
		t.Errorf("histogram _sum = %v, %v; want > 0", v, ok)
	}
}

// TestWithMetricsSharedRegistry pins that an externally supplied registry
// receives both the server's HTTP series and the store's series — the
// single-exposition deployment fairserve uses.
func TestWithMetricsSharedRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	path := filepath.Join(t.TempDir(), "srv.db")
	db, err := store.Open(path, store.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s, err := New(db, WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if s.Metrics() != reg {
		t.Fatal("Metrics() did not return the supplied registry")
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	uploadDataset(t, ts, "crowd", 120)
	body := scrape(t, ts)
	if v, ok := metricValue(body, store.MetricPuts); !ok || v < 1 {
		t.Errorf("%s = %v, %v; want >= 1 (dataset upload persisted)", store.MetricPuts, v, ok)
	}
	series := MetricHTTPRequests + `{code="201",route="POST /v1/datasets/{name}"}`
	if v, ok := metricValue(body, series); !ok || v != 1 {
		t.Errorf("%s = %v, %v; want 1", series, v, ok)
	}
}

// TestPprofGated pins that /debug/pprof/ is 404 by default and serves
// only when WithPprof is given.
func TestPprofGated(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof served without WithPprof: status %d", resp.StatusCode)
	}

	db, err := store.Open(filepath.Join(t.TempDir(), "srv.db"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s, err := New(db, WithPprof())
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s.Handler())
	t.Cleanup(ts2.Close)
	resp, err = http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d with WithPprof", resp.StatusCode)
	}
	if body, _ := io.ReadAll(resp.Body); !strings.Contains(string(body), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
}

func TestDebugVarsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.PublishExpvar("fairrank-test-debugvars")
	reg.Counter("test_counter_total").Inc()
	_, ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/vars status %d", resp.StatusCode)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("expvar output is not valid JSON: %v", err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(vars["fairrank-test-debugvars"], &snap); err != nil {
		t.Fatalf("published registry var: %v", err)
	}
	if snap.Counters["test_counter_total"] != 1 {
		t.Errorf("expvar snapshot = %+v, want test_counter_total 1", snap.Counters)
	}
}
