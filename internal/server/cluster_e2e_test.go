// End-to-end cluster tests: real HTTP between N in-process fairserve
// nodes, short heartbeats, and the acceptance scenarios from the
// multi-node milestone — cluster-wide dedup, work-stealing drain,
// zero-loss node death with bit-identical recovery, and snapshot
// hydration (including resume after a mid-transfer failure).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fairrank/internal/cluster"
	"fairrank/internal/core"
	"fairrank/internal/jobs"
	"fairrank/internal/store"
)

// startNode boots one fairserve node on its own store and listener.
func startNode(t *testing.T, opts ...ServerOption) (*Server, *httptest.Server) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "node.db")
	db, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s, err := New(db, opts...)
	if err != nil {
		t.Fatal(err)
	}
	// Stop the node's heartbeat loop and queue before its store closes.
	// A cluster left running keeps probing its closed peers every
	// heartbeat for the rest of the test binary, allocating under later
	// tests that read the heap.
	t.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = s.Shutdown(ctx)
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// formCluster joins the nodes into one cluster with test-speed
// heartbeats and waits until every node's ring covers the full
// membership. mut can tweak each node's config before enabling.
func formCluster(t *testing.T, servers []*Server, urls []string, mut func(i int, cfg *cluster.Config)) {
	t.Helper()
	for i, s := range servers {
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		cfg := cluster.Config{
			Self:         urls[i],
			NodeID:       fmt.Sprintf("node-%c", 'a'+i),
			Peers:        peers,
			Heartbeat:    25 * time.Millisecond,
			PeerTimeout:  2 * time.Second,
			SuspectAfter: 2,
		}
		if mut != nil {
			mut(i, &cfg)
		}
		if err := s.EnableCluster(cfg); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "cluster formation", func() bool {
		for _, s := range servers {
			if len(s.Cluster().Status().RingNodes) != len(servers) {
				return false
			}
		}
		return true
	})
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// postJobDirect submits a job spec with the forwarding loop guard
// stamped, pinning it to the receiving node regardless of ring owner.
func postJobDirect(t *testing.T, baseURL string, spec map[string]any) apiJob {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/jobs", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.HeaderForwarded, "test-direct")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("direct submit status %d (%s)", resp.StatusCode, body)
	}
	var j apiJob
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	return j
}

// scatterPage mirrors a clustered jobPage for decoding fan-out
// responses.
type scatterPage struct {
	Jobs []struct {
		jobs.Job
		Node string `json:"node"`
	} `json:"jobs"`
	Total   int  `json:"total"`
	Partial bool `json:"partial"`
}

func listScattered(t *testing.T, baseURL, query string) scatterPage {
	t.Helper()
	var page scatterPage
	if status := getJSON(t, baseURL+"/v1/jobs"+query, &page); status != http.StatusOK {
		t.Fatalf("scatter list status %d", status)
	}
	return page
}

// TestClusterForwardDedupScatter: one spec submitted through all three
// nodes runs exactly once cluster-wide (ring placement + canonical-hash
// dedup), and scatter-gather reads surface it from any node.
func TestClusterForwardDedupScatter(t *testing.T) {
	var servers []*Server
	var urls []string
	for i := 0; i < 3; i++ {
		s, ts := startNode(t)
		uploadDataset(t, ts, "demo", 40)
		servers = append(servers, s)
		urls = append(urls, ts.URL)
	}
	formCluster(t, servers, urls, func(i int, cfg *cluster.Config) {
		cfg.DisableStealing = true
		cfg.DisableHydration = true
	})
	// Peers must advertise the dataset before placement forwards to them.
	waitFor(t, 5*time.Second, "dataset advertisement", func() bool {
		for _, s := range servers {
			for _, p := range s.Cluster().Status().Peers {
				found := false
				for _, d := range p.Datasets {
					if d == "demo" {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	})

	spec := jobSpecBody(map[string]float64{"LanguageTest": 1}, 99)
	var ids []string
	for _, u := range urls {
		resp, body := postJSON(t, u+"/v1/jobs", spec)
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit via %s: status %d (%s)", u, resp.StatusCode, body)
		}
		var j apiJob
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	// All three submissions coalesced onto the same owner-side job.
	if ids[0] != ids[1] || ids[1] != ids[2] {
		t.Fatalf("submissions did not coalesce: ids %v", ids)
	}
	// The job is visible — and awaitable — from every node via scatter.
	for _, u := range urls {
		waitJobHTTP(t, u, ids[0], jobs.StateDone)
	}
	var runs int64
	for _, s := range servers {
		runs += s.Jobs().Runs()
	}
	if runs != 1 {
		t.Fatalf("cluster ran the spec %d times, want exactly 1", runs)
	}
	// Scatter list agrees from every vantage point and names the owner.
	var owner string
	for _, u := range urls {
		page := listScattered(t, u, "?state=done")
		if page.Total != 1 || len(page.Jobs) != 1 || page.Partial {
			t.Fatalf("scatter list from %s: %+v", u, page)
		}
		if page.Jobs[0].Node == "" {
			t.Fatalf("scatter list from %s missing node annotation", u)
		}
		if owner == "" {
			owner = page.Jobs[0].Node
		} else if page.Jobs[0].Node != owner {
			t.Fatalf("owner disagreement: %s vs %s", page.Jobs[0].Node, owner)
		}
	}
	// Validation still precedes fan-out on a clustered node.
	var errResp map[string]any
	for _, bad := range []string{"?limit=-1", "?offset=-3", "?limit=x"} {
		if status := getJSON(t, urls[0]+"/v1/jobs"+bad, &errResp); status != http.StatusBadRequest {
			t.Fatalf("clustered GET /v1/jobs%s status %d, want 400", bad, status)
		}
	}
	// Build identity and cluster series are live on /metrics.
	resp, err := http.Get(urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"fairrank_build_info", "fairrank_cluster_epoch", "fairrank_cluster_peer_up"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestClusterWorkStealingDrains: a node whose executor is wedged
// accumulates queued jobs; an idle peer steals and runs them, the
// victim's copies go terminal as "stolen", and no job is lost.
func TestClusterWorkStealingDrains(t *testing.T) {
	release := make(chan struct{})
	var once sync.Once
	gate := func(orig jobs.Executor) jobs.Executor {
		return func(ctx context.Context, j jobs.Job, progress func(core.TraceStep)) ([]byte, error) {
			<-release
			return orig(ctx, j, progress)
		}
	}
	sA, tsA := startNode(t, func(s *Server) { s.jobExecWrap = gate })
	sB, tsB := startNode(t)
	uploadDataset(t, tsA, "demo", 40)
	uploadDataset(t, tsB, "demo", 40)
	servers := []*Server{sA, sB}
	urls := []string{tsA.URL, tsB.URL}
	formCluster(t, servers, urls, func(i int, cfg *cluster.Config) {
		cfg.DisableHydration = true
		cfg.DisableStealing = i == 0 // only B steals
	})
	defer once.Do(func() { close(release) })

	const n = 6
	for i := 0; i < n; i++ {
		postJobDirect(t, tsA.URL, jobSpecBody(map[string]float64{"LanguageTest": 1}, uint64(200+i)))
	}
	// B steals A's queued backlog (A's workers are wedged) and runs it.
	waitFor(t, 10*time.Second, "steals to land", func() bool {
		return sB.Jobs().Runs() >= 1
	})
	waitFor(t, 10*time.Second, "victim copies to go terminal", func() bool {
		page := listScattered(t, tsB.URL, "?state=stolen")
		return page.Total >= 1 && int64(page.Total) == sB.Jobs().Runs()
	})
	stolen := listScattered(t, tsB.URL, "?state=stolen").Total
	once.Do(func() { close(release) }) // let A finish what it kept
	waitFor(t, 10*time.Second, "all jobs done cluster-wide", func() bool {
		return listScattered(t, tsA.URL, "?state=done").Total == n
	})
	if got := sA.Jobs().Runs() + sB.Jobs().Runs(); got != int64(n) {
		t.Fatalf("cluster ran %d jobs, want %d", got, n)
	}
	if sB.Jobs().Runs() == 0 || stolen == 0 {
		t.Fatalf("no stealing happened (B ran %d, stolen %d)", sB.Jobs().Runs(), stolen)
	}
	// Steal accounting made it to telemetry.
	snap := sB.metrics.Snapshot()
	var steals int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "fairrank_cluster_steals_total") {
			steals += v
		}
	}
	if steals != sB.Jobs().Runs() {
		t.Fatalf("steal counter %d != thief runs %d", steals, sB.Jobs().Runs())
	}
	// The victim clears its pin at handoff and the thief pins its own
	// content, as its submit path would refuse a spec carrying one.
	sB.mu.RLock()
	own := digestOf(sB.datasets["demo"])
	sB.mu.RUnlock()
	landed, _ := sB.Jobs().List("", 0, n)
	for _, j := range landed {
		if j.Spec.Digest != own {
			t.Fatalf("stolen job %s pinned %q, want the thief's content %s", j.ID, j.Spec.Digest, own)
		}
	}
}

// TestClusterKillNodeZeroLossBitIdentical: jobs forwarded to a node
// that dies mid-run are re-placed on the next ring epoch and complete
// elsewhere — zero jobs lost, and every recovered result is
// bit-identical to a clean standalone run of the same spec.
func TestClusterKillNodeZeroLossBitIdentical(t *testing.T) {
	wedge := func(jobs.Executor) jobs.Executor {
		return func(ctx context.Context, j jobs.Job, progress func(core.TraceStep)) ([]byte, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}
	}
	sA, tsA := startNode(t)
	sB, tsB := startNode(t, func(s *Server) { s.jobExecWrap = wedge }) // the node that dies
	sC, tsC := startNode(t)
	for _, ts := range []*httptest.Server{tsA, tsB, tsC} {
		uploadDataset(t, ts, "demo", 40)
	}
	servers := []*Server{sA, sB, sC}
	urls := []string{tsA.URL, tsB.URL, tsC.URL}
	formCluster(t, servers, urls, func(i int, cfg *cluster.Config) {
		cfg.DisableStealing = true // pin recovery to the re-placement path
		cfg.DisableHydration = true
	})
	waitFor(t, 5*time.Second, "dataset advertisement", func() bool {
		for _, p := range sA.Cluster().Status().Peers {
			if len(p.Datasets) == 0 {
				return false
			}
		}
		return true
	})

	// Submit distinct specs through A; ring placement spreads them, and
	// everything landing on B wedges there.
	const n = 8
	seeds := map[uint64]bool{}
	for i := 0; i < n; i++ {
		seed := uint64(300 + i)
		seeds[seed] = true
		resp, body := postJSON(t, tsA.URL+"/v1/jobs", jobSpecBody(map[string]float64{"ApprovalRate": 2, "LanguageTest": 1}, seed))
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	// Kill B abruptly: listener gone, in-flight work killed mid-run.
	tsB.Close()
	sB.Jobs().Kill()

	// Everything must still finish — re-placed onto A or C.
	waitFor(t, 30*time.Second, "all jobs done after node death", func() bool {
		page := listScattered(t, tsA.URL, "?state=done&limit=50")
		got := map[uint64]bool{}
		for _, j := range page.Jobs {
			if seeds[j.Spec.Seed] {
				got[j.Spec.Seed] = true
			}
		}
		return len(got) == n
	})
	page := listScattered(t, tsA.URL, "?state=done&limit=50")
	if !page.Partial {
		t.Fatal("scatter list with a dead peer must be flagged partial")
	}
	if sB.Jobs().Runs() == 0 {
		t.Fatal("no jobs were placed on the doomed node; the death scenario is vacuous")
	}

	// Reference: a clean standalone node runs every spec; results must
	// match the cluster's bit for bit.
	_, tsRef := startNode(t)
	uploadDataset(t, tsRef, "demo", 40)
	ref := map[uint64][]byte{}
	for seed := range seeds {
		j := postJobDirect(t, tsRef.URL, jobSpecBody(map[string]float64{"ApprovalRate": 2, "LanguageTest": 1}, seed))
		done := waitJobHTTP(t, tsRef.URL, j.ID, jobs.StateDone)
		ref[seed] = done.Result
	}
	// A list page summarizes results; each job's result is fetched from
	// the node that holds it.
	nodeURL := map[string]string{"node-a": tsA.URL, "node-c": tsC.URL}
	for _, j := range page.Jobs {
		want, ok := ref[j.Spec.Seed]
		if !ok {
			continue
		}
		got := waitJobHTTP(t, nodeURL[j.Node], j.ID, jobs.StateDone).Result
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: recovered result differs from clean run:\n  cluster %s\n  clean   %s",
				j.Spec.Seed, got, want)
		}
	}
}

// TestClusterSnapshotHydration: a dataset uploaded to node A hydrates
// automatically onto empty nodes B and C; the shipped snapshot is
// byte-identical and audits of it are bit-identical across nodes.
func TestClusterSnapshotHydration(t *testing.T) {
	sA, tsA := startNode(t)
	sB, tsB := startNode(t)
	sC, tsC := startNode(t)
	uploadDataset(t, tsA, "shared", 40)
	servers := []*Server{sA, sB, sC}
	urls := []string{tsA.URL, tsB.URL, tsC.URL}
	formCluster(t, servers, urls, func(i int, cfg *cluster.Config) {
		cfg.DisableStealing = true
	})
	waitFor(t, 10*time.Second, "hydration onto B and C", func() bool {
		for _, u := range []string{tsB.URL, tsC.URL} {
			var ds map[string]any
			if getJSON(t, u+"/v1/datasets/shared", &ds) != http.StatusOK {
				return false
			}
		}
		return true
	})
	fetch := func(u string) []byte {
		resp, err := http.Get(u + "/v1/datasets/shared/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("snapshot export status %d", resp.StatusCode)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	orig := fetch(tsA.URL)
	if hydrated := fetch(tsC.URL); !bytes.Equal(orig, hydrated) {
		t.Fatalf("hydrated snapshot differs: %d vs %d bytes", len(orig), len(hydrated))
	}
	// Audit the hydrated copy on C and the original on A, forced local on
	// each; pure-function determinism demands identical bytes out.
	spec := map[string]any{"dataset": "shared", "weights": map[string]float64{"LanguageTest": 1}, "seed": 5, "budget": 500}
	jA := postJobDirect(t, tsA.URL, spec)
	jC := postJobDirect(t, tsC.URL, spec)
	rA := waitJobHTTP(t, tsA.URL, jA.ID, jobs.StateDone)
	rC := waitJobHTTP(t, tsC.URL, jC.ID, jobs.StateDone)
	if !bytes.Equal(rA.Result, rC.Result) {
		t.Fatalf("audit of hydrated dataset differs:\n  A %s\n  C %s", rA.Result, rC.Result)
	}
}

// TestHydrateResumesMidTransfer drives hydrateFromPeer directly against
// a flaky peer: the first transfer dies after one 4 MiB chunk, and the
// retry fetches only the missing tail — the persisted upload session is
// the resume point, exactly like a client-side resumable upload.
func TestHydrateResumesMidTransfer(t *testing.T) {
	_, tsA := startNode(t)
	uploadDataset(t, tsA, "big", 60000) // ~5 MB snapshot → 2 chunks

	var mu sync.Mutex
	var rangeReqs []string
	failNext := false
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && r.Header.Get("Range") != "" {
			mu.Lock()
			rangeReqs = append(rangeReqs, r.Header.Get("Range"))
			n := len(rangeReqs)
			mu.Unlock()
			if n == 2 && failNext {
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
		}
		req, err := http.NewRequest(r.Method, tsA.URL+r.URL.Path, nil)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		if rng := r.Header.Get("Range"); rng != "" {
			req.Header.Set("Range", rng)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, v := range resp.Header {
			w.Header()[k] = v
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
	}))
	t.Cleanup(proxy.Close)
	failNext = true

	sC, tsC := startNode(t)
	if _, err := sC.hydrateFromPeer("big", proxy.URL); err == nil {
		t.Fatal("first hydration should fail at the second chunk")
	}
	if _, err := sC.hydrateFromPeer("big", proxy.URL); err != nil {
		t.Fatalf("resumed hydration failed: %v", err)
	}
	mu.Lock()
	reqs := append([]string(nil), rangeReqs...)
	mu.Unlock()
	if len(reqs) != 3 {
		t.Fatalf("expected 3 range requests (chunk1, failed chunk2, resumed chunk2), got %v", reqs)
	}
	if reqs[0] == reqs[1] || reqs[1] != reqs[2] {
		t.Fatalf("resume re-fetched the wrong ranges: %v", reqs)
	}
	if !strings.HasPrefix(reqs[1], "bytes=4194304-") {
		t.Fatalf("second chunk should start at 4 MiB: %v", reqs)
	}
	// The hydrated dataset is registered and byte-identical to the source.
	var ds map[string]any
	if status := getJSON(t, tsC.URL+"/v1/datasets/big", &ds); status != http.StatusOK {
		t.Fatalf("hydrated dataset not registered: status %d", status)
	}
	get := func(u string) []byte {
		resp, err := http.Get(u + "/v1/datasets/big/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if !bytes.Equal(get(tsA.URL), get(tsC.URL)) {
		t.Fatal("hydrated snapshot bytes differ from source")
	}
}
