// Cluster throughput benchmark behind the cluster gate of `make gates`.
// Three cells, one shared job workload (submit b.N distinct audit specs
// over HTTP, wait for the fleet to finish them):
//
//	cluster=off    standalone node, EnableCluster never called — the
//	               pre-cluster baseline (nil cluster ref on every path).
//	cluster=solo   same node with the cluster layer enabled but zero
//	               peers: heartbeat loop, ring of one, placement checks
//	               all live. The gate holds this within 5% of
//	               cluster=off — clustering compiled in and idle must be
//	               (nearly) free.
//	cluster=three  3-node cluster, a b.N-job backlog pinned to node A
//	               with every executor gated until submission finishes —
//	               the timed region is the fleet draining the backlog
//	               (stealing enabled), and the cell reports the
//	               steal-latency histogram. The gate is what makes steals
//	               observable at all on a small CI box: without it the
//	               submit path costs at least as much CPU as the audit
//	               itself, so a backlog never forms and thieves correctly
//	               see an empty victim.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"fairrank/internal/cluster"
	"fairrank/internal/core"
	"fairrank/internal/jobs"
	"fairrank/internal/simulate"
	"fairrank/internal/store"
)

func benchNode(b *testing.B, opts ...ServerOption) (*Server, *httptest.Server) {
	b.Helper()
	path := filepath.Join(b.TempDir(), "node.db")
	db, err := store.Open(path, store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	s, err := New(db, opts...)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return s, ts
}

func benchUpload(b *testing.B, ts *httptest.Server, name string, n int) {
	b.Helper()
	ds, err := simulate.PaperWorkers(n, 42)
	if err != nil {
		b.Fatal(err)
	}
	uploadSnapshot(b, ts, name, ds)
}

// benchDrain submits b.N distinct specs round-robin over submitURLs and
// blocks until every node in servers has finished its share.
func benchDrain(b *testing.B, servers []*Server, submitURLs []string, seedBase uint64) {
	b.Helper()
	client := &http.Client{Timeout: 30 * time.Second}
	for i := 0; i < b.N; i++ {
		spec := map[string]any{
			"dataset": "demo",
			"weights": map[string]float64{"LanguageTest": 1},
			"seed":    seedBase + uint64(i),
			"budget":  200,
		}
		raw, _ := json.Marshal(spec)
		u := submitURLs[i%len(submitURLs)]
		req, err := http.NewRequest(http.MethodPost, u+"/v1/jobs", bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			b.Fatalf("submit status %d", resp.StatusCode)
		}
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var runs int64
		for _, s := range servers {
			runs += s.Jobs().Runs()
		}
		if runs >= int64(b.N) {
			return
		}
		if time.Now().After(deadline) {
			b.Fatalf("fleet finished %d/%d jobs before deadline", runs, b.N)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// BenchmarkClusterJobs runs the cells above. The gated pair, cluster=off
// and cluster=solo, runs in ABBA order, as BenchmarkDriftAlarm's arms do,
// so each pairing is adjacent in time and each arm runs first as often
// as second.
func BenchmarkClusterJobs(b *testing.B) {
	// Each arm submits its b.N jobs in one burst: queue headroom for all
	// of them keeps a stalled worker from turning the burst into 429s.
	off := func(b *testing.B) {
		s, ts := benchNode(b, WithJobQueueLimit(b.N+64))
		benchUpload(b, ts, "demo", 40)
		b.ResetTimer()
		benchDrain(b, []*Server{s}, []string{ts.URL}, 10_000)
	}
	solo := func(b *testing.B) {
		s, ts := benchNode(b, WithJobQueueLimit(b.N+64))
		benchUpload(b, ts, "demo", 40)
		if err := s.EnableCluster(cluster.Config{
			Self:      ts.URL,
			NodeID:    "solo",
			Heartbeat: 25 * time.Millisecond,
		}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		benchDrain(b, []*Server{s}, []string{ts.URL}, 20_000)
	}
	b.Run("order=ab/cluster=off", off)
	b.Run("order=ab/cluster=solo", solo)
	b.Run("order=ba/cluster=solo", solo)
	b.Run("order=ba/cluster=off", off)

	b.Run("cluster=three", func(b *testing.B) {
		// Every node's executor blocks on release until the backlog is in
		// place; node A needs queue headroom for the whole backlog.
		release := make(chan struct{})
		gate := func(s *Server) {
			s.jobExecWrap = func(orig jobs.Executor) jobs.Executor {
				return func(ctx context.Context, j jobs.Job, progress func(core.TraceStep)) ([]byte, error) {
					<-release
					return orig(ctx, j, progress)
				}
			}
		}
		var servers []*Server
		var urls []string
		for i := 0; i < 3; i++ {
			s, ts := benchNode(b, gate, WithJobQueueLimit(b.N+64))
			benchUpload(b, ts, "demo", 40)
			servers = append(servers, s)
			urls = append(urls, ts.URL)
		}
		for i, s := range servers {
			var peers []string
			for j, u := range urls {
				if j != i {
					peers = append(peers, u)
				}
			}
			if err := s.EnableCluster(cluster.Config{
				Self:         urls[i],
				NodeID:       fmt.Sprintf("bench-%c", 'a'+i),
				Peers:        peers,
				Heartbeat:    25 * time.Millisecond,
				SuspectAfter: 2,
				// Hydration off: every node already holds the dataset.
				DisableHydration: true,
			}); err != nil {
				b.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			formed := true
			for _, s := range servers {
				if len(s.Cluster().Status().RingNodes) != 3 {
					formed = false
				}
			}
			if formed {
				break
			}
			if time.Now().After(deadline) {
				b.Fatal("cluster did not form")
			}
			time.Sleep(10 * time.Millisecond)
		}
		// Untimed: pin the whole backlog onto node A (the loop-guard header
		// suppresses ring forwarding so the steal path, not placement, does
		// the distribution). B and C start stealing batches immediately —
		// their gated workers wedge, so nothing executes yet.
		client := &http.Client{Timeout: 30 * time.Second}
		for i := 0; i < b.N; i++ {
			spec := map[string]any{
				"dataset": "demo",
				"weights": map[string]float64{"LanguageTest": 1},
				"seed":    uint64(30_000 + i),
				"budget":  200,
			}
			raw, _ := json.Marshal(spec)
			req, err := http.NewRequest(http.MethodPost, urls[0]+"/v1/jobs", bytes.NewReader(raw))
			if err != nil {
				b.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(cluster.HeaderForwarded, "bench-pin")
			resp, err := client.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				b.Fatalf("submit status %d", resp.StatusCode)
			}
		}
		// Timed region: open the gate and drain the backlog fleet-wide.
		b.ResetTimer()
		close(release)
		deadline = time.Now().Add(2 * time.Minute)
		for {
			var runs int64
			for _, s := range servers {
				runs += s.Jobs().Runs()
			}
			if runs >= int64(b.N) {
				break
			}
			if time.Now().After(deadline) {
				b.Fatalf("fleet finished %d/%d jobs before deadline", runs, b.N)
			}
			time.Sleep(2 * time.Millisecond)
		}
		b.StopTimer()
		// Steal-latency histogram across the thieves (nodes B and C).
		var count int64
		var p50, p99 float64
		for _, s := range servers[1:] {
			h := s.metrics.Histogram(cluster.MetricStealSeconds, nil)
			if c := h.Count(); c > 0 {
				count += c
				if q := h.Quantile(0.5); q > p50 {
					p50 = q
				}
				if q := h.Quantile(0.99); q > p99 {
					p99 = q
				}
			}
		}
		b.ReportMetric(float64(count), "steal-batches")
		b.ReportMetric(p50*1e3, "steal-p50-ms")
		b.ReportMetric(p99*1e3, "steal-p99-ms")
	})
}
