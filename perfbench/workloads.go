package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"fairrank/internal/cluster"
	"fairrank/internal/dataset"
	"fairrank/internal/drift"
	"fairrank/internal/rng"
)

// workload is one traffic mix. Every cycle sends the primary operation
// and then the secondary one; README.md says why each workload exists.
type workload struct {
	name      string
	workers   int
	primary   string
	secondary string
	// warmCycles closed-loop cycles run at the end of every set-up.
	warmCycles int
	// period is the length of the input cycle (algorithms, queries); a
	// traced run alternates whole periods traced and untraced, so both
	// halves see the same mix.
	period  int
	inputs  func(r *rng.RNG, ds *dataset.Dataset, seconds time.Duration) (*requests, error)
	boot    func(b *bench, dir string) error
	prepare func(b *bench) error
	warm    func(b *bench, i int) error
	cycles  func(rq *requests) int
	cycle   func(b *bench, i int)
	check   func(b *bench) error
	sweep   func(b *bench) error
}

var workloads = map[string]*workload{
	"audit-7300":   auditWorkload("audit-7300", 7300, 1),
	"audit-1m":     auditWorkload("audit-1m", 1_000_000, 1),
	"cluster-7300": auditWorkload("cluster-7300", 7300, 3),
	"serve-7300": {
		name: "serve-7300", workers: 7300, primary: "rank", secondary: "events",
		warmCycles: 50,
		period:     2 * len(pageAlgorithms),
		inputs:     serveInputs,
		boot:       func(b *bench, dir string) error { return b.startNodes(dir, 1, nil) },
		prepare:    (*bench).prepareServe,
		warm: func(b *bench, i int) error {
			return b.rankAndEvents(i, b.rq.pages[len(b.rq.pages)-1-i%len(b.rq.pages)], b.rq.batches[i], false)
		},
		cycles: func(rq *requests) int { return len(rq.batches) - serveWarmBatches },
		cycle: func(b *bench, i int) {
			_ = b.rankAndEvents(i, b.rq.pages[i%len(b.rq.pages)], b.rq.batches[serveWarmBatches+i], true)
		},
		check: (*bench).checkServe,
		sweep: (*bench).sweepServe,
	},
}

// auditWorkload builds the fresh-audit-then-resubmit mix over n workers
// on nodes fairserve processes (a static cluster when nodes > 1).
func auditWorkload(name string, n, nodes int) *workload {
	return &workload{
		name: name, workers: n, primary: "audit", secondary: "resubmit",
		warmCycles: len(auditAlgorithms),
		period:     len(auditAlgorithms),
		inputs:     auditInputs,
		boot: func(b *bench, dir string) error {
			if nodes == 1 {
				return b.startNodes(dir, 1, nil)
			}
			return b.startNodes(dir, nodes, func(i int, urls []string) []string {
				var peers []string
				for j, u := range urls {
					if j != i {
						peers = append(peers, u)
					}
				}
				return []string{"-node-id", fmt.Sprintf("node%d", i), "-advertise", urls[i], "-peers", strings.Join(peers, ",")}
			})
		},
		prepare: (*bench).prepareAudit,
		warm:    func(b *bench, i int) error { return b.auditCycle(i, b.rq.warmSpecs[i], false) },
		cycles:  func(rq *requests) int { return len(rq.specs) },
		cycle:   func(b *bench, i int) { _ = b.auditCycle(i, b.rq.specs[i], true) },
		check:   (*bench).checkAudits,
		sweep:   (*bench).sweepAudit,
	}
}

// --- audit workloads ---------------------------------------------------

// auditState is what the audit workloads keep for checks and metrics.
type auditState struct {
	// results holds the server's result for the first fresh spec of
	// every algorithm, and for every traced fresh spec.
	results   map[int]json.RawMessage
	wait, run []time.Duration
	progress  []int
	// resubmit latencies at the ring owner and at another node.
	atOwner, forwarded []time.Duration
	refs               []refRun
}

func (a auditState) hop() (float64, bool) {
	if len(a.atOwner) == 0 || len(a.forwarded) == 0 {
		return 0, false
	}
	return median(a.forwarded) - median(a.atOwner), true
}

func auditInputs(r *rng.RNG, _ *dataset.Dataset, seconds time.Duration) (*requests, error) {
	warm, err := auditSpecs(r, len(auditAlgorithms))
	if err != nil {
		return nil, err
	}
	// No audit cycle at any size finishes in under 25 ms, so 40 cycles a
	// second is an upper bound on what the clock can consume.
	specs, err := auditSpecs(r, int(seconds.Seconds()*40)+20)
	if err != nil {
		return nil, err
	}
	return &requests{warmSpecs: warm, specs: specs}, nil
}

// prepareAudit uploads the population to every node: one-shot at 7300
// workers, through a chunked upload session at 1M. A cluster then waits
// until every node sees every peer alive and holding the dataset, so no
// hydration or placement fallback runs while the clock is on.
func (b *bench) prepareAudit() error {
	if err := b.upload(); err != nil {
		return err
	}
	if len(b.nodes) > 1 {
		return b.awaitCluster()
	}
	return nil
}

func (b *bench) upload() error {
	raw, err := os.ReadFile(b.pop.path)
	if err != nil {
		return err
	}
	start := time.Now()
	for _, n := range b.nodes {
		if b.pop.ds.N() > 100_000 {
			err = uploadChunked(n, raw)
		} else {
			err = n.call("POST", "/v1/datasets/"+datasetName, raw,
				map[string]string{"Content-Type": "application/x-fairrank-snapshot"}, http.StatusCreated, nil)
		}
		if err != nil {
			return fmt.Errorf("upload: %w", err)
		}
	}
	b.uploadS = time.Since(start).Seconds() / float64(len(b.nodes))
	return nil
}

// uploadChunked sends raw through a resumable upload session in 16 MiB
// Content-Range chunks; the final chunk finalizes the dataset.
func uploadChunked(n *node, raw []byte) error {
	const chunk = 16 << 20
	var sess struct {
		Token string `json:"token"`
	}
	body := []byte(fmt.Sprintf(`{"size":%d}`, len(raw)))
	if err := n.doJSON("POST", "/v1/datasets/"+datasetName+"/uploads", body, http.StatusCreated, &sess); err != nil {
		return err
	}
	for off := 0; off < len(raw); off += chunk {
		end := min(off+chunk, len(raw))
		want := http.StatusAccepted
		if end == len(raw) {
			want = http.StatusCreated
		}
		hdr := map[string]string{
			"Content-Type":  "application/octet-stream",
			"Upload-Token":  sess.Token,
			"Content-Range": fmt.Sprintf("bytes %d-%d/%d", off, end-1, len(raw)),
		}
		if err := n.call("POST", "/v1/datasets/"+datasetName+"/chunks", raw[off:end], hdr, want, nil); err != nil {
			return err
		}
	}
	return nil
}

func (b *bench) awaitCluster() error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		ready := true
		for _, n := range b.nodes {
			var st cluster.Status
			if err := n.doJSON("GET", "/v1/cluster", nil, http.StatusOK, &st); err != nil {
				return err
			}
			for _, p := range st.Peers {
				if !p.Alive || !slices.Contains(p.Datasets, datasetName) {
					ready = false
				}
			}
			if len(st.Peers) != len(b.nodes)-1 {
				ready = false
			}
		}
		if ready {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster not ready after 20s")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// jobView is the part of a job's JSON the generator reads.
type jobView struct {
	ID         string          `json:"id"`
	SpecHash   string          `json:"spec_hash"`
	State      string          `json:"state"`
	EnqueuedAt time.Time       `json:"enqueued_at"`
	StartedAt  time.Time       `json:"started_at"`
	FinishedAt time.Time       `json:"finished_at"`
	Error      string          `json:"error"`
	Result     json.RawMessage `json:"result"`
}

// auditCycle submits fresh spec i to node i mod N, follows it to the
// end, fetches the result, and resubmits it to the other nodes (to the
// same node on a single-node workload).
func (b *bench) auditCycle(i int, spec auditSpec, timed bool) error {
	at := i % len(b.nodes)
	var job jobView
	owner := at
	var events []sse
	start, _, err := b.timedOp(timed, "audit", spec.algorithm, func() error {
		if err := b.nodes[at].doJSON("POST", "/v1/jobs", spec.body, http.StatusAccepted, &job); err != nil {
			return err
		}
		var err error
		if len(b.nodes) > 1 {
			if owner, err = b.findOwner(job, at); err != nil {
				return err
			}
		}
		if events, err = b.nodes[owner].follow("/v1/jobs/" + job.ID + "/events"); err != nil {
			return err
		}
		if err := b.nodes[owner].doJSON("GET", "/v1/jobs/"+job.ID, nil, http.StatusOK, &job); err != nil {
			return err
		}
		if job.State != "done" {
			return fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("fresh audit %d: %w", i, err)
	}
	end := time.Now()
	if timed {
		a := &b.audit
		progress := 0
		for _, ev := range events {
			if ev.event == "progress" {
				progress++
			}
		}
		a.progress = append(a.progress, progress)
		a.wait = append(a.wait, job.StartedAt.Sub(job.EnqueuedAt))
		a.run = append(a.run, job.FinishedAt.Sub(job.StartedAt))
		if a.results == nil {
			a.results = map[int]json.RawMessage{}
		}
		if i < len(auditAlgorithms) || b.tr != nil {
			a.results[i] = job.Result
		}
		if b.tr != nil {
			b.replayAudit(i, spec, start, end)
		}
	}

	var firstErr error
	for k := 1; k <= max(len(b.nodes)-1, 1); k++ {
		to := (at + k) % len(b.nodes)
		rstart, d, err := b.timedOp(timed, "resubmit", "", func() error {
			var again jobView
			if err := b.nodes[to].doJSON("POST", "/v1/jobs", spec.body, http.StatusOK, &again); err != nil {
				return err
			}
			if again.ID != job.ID || again.State != "done" {
				return fmt.Errorf("resubmit answered job %s in state %s, want %s done", again.ID, again.State, job.ID)
			}
			return nil
		})
		if err != nil {
			firstErr = fmt.Errorf("resubmit %d: %w", i, err)
			continue
		}
		if timed {
			if to == owner {
				b.audit.atOwner = append(b.audit.atOwner, d)
			} else {
				b.audit.forwarded = append(b.audit.forwarded, d)
			}
			if b.tr != nil {
				b.replayResubmit(i, spec, rstart, time.Now())
			}
		}
	}
	return firstErr
}

// findOwner locates the node that runs job: job ids are per node, so it
// asks each node for its local copy (the scatter header keeps the lookup
// local) and matches the spec hash. The submitting node goes first.
func (b *bench) findOwner(job jobView, at int) (int, error) {
	for k := 0; k < len(b.nodes); k++ {
		i := (at + k) % len(b.nodes)
		status, out, err := b.nodes[i].do("GET", "/v1/jobs/"+job.ID, nil, map[string]string{cluster.HeaderScatter: "perfbench"})
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK {
			continue
		}
		var local jobView
		if err := json.Unmarshal(out, &local); err != nil {
			return 0, err
		}
		if local.SpecHash == job.SpecHash {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no node holds job %s with hash %s", job.ID, job.SpecHash)
}

// timedOp runs fn as a recorded operation of kind and class when timed,
// or plainly during warm-up. It returns the start time, the duration and
// fn's error.
func (b *bench) timedOp(timed bool, kind, class string, fn func() error) (time.Time, time.Duration, error) {
	start := time.Now()
	if !timed {
		err := fn()
		return start, time.Since(start), err
	}
	d, err := b.op(kind, class, fn)
	return start, d, err
}

// pageClass names a page's re-ranker for per-class medians.
func pageClass(p rankPage) string {
	if p.algorithm == "" {
		return "none"
	}
	return p.algorithm
}

// --- serve-7300 --------------------------------------------------------

// serveWarmBatches event batches are sent during each set-up's warm-up.
const serveWarmBatches = 50

// serveState is what serve-7300 keeps for checks and metrics.
type serveState struct {
	// plain holds, per q ("" for none), the worker ids of every page
	// served without a re-ranker.
	plain map[string][][]string
	// sent counts event batches acknowledged, warm-up included; alarms
	// counts the transitions they reported (timedAlarms: timed phase).
	sent, alarms, timedAlarms int
	pool                      []int
	watch                     *drift.Watch
	applied                   int
	refAlarms                 int
}

func serveInputs(r *rng.RNG, ds *dataset.Dataset, seconds time.Duration) (*requests, error) {
	weights := drawWeights(r)
	task, err := json.Marshal(map[string]any{"id": taskID, "title": "benchmark task", "dataset": datasetName, "weights": weights})
	if err != nil {
		return nil, err
	}
	pages, err := rankPages(r, 200)
	if err != nil {
		return nil, err
	}
	// No serve cycle finishes in under 10 ms, so 100 cycles a second is
	// an upper bound on what the clock can consume.
	batches, err := eventStream(r, ds, serveWarmBatches+int(seconds.Seconds()*100)+20)
	if err != nil {
		return nil, err
	}
	return &requests{task: task, monitor: monitorSpec(weights), pages: pages, batches: batches}, nil
}

// prepareServe uploads the population, posts the task and creates the
// monitor, which seeds it from all 7300 rows.
func (b *bench) prepareServe() error {
	b.serve = serveState{}
	if err := b.upload(); err != nil {
		return err
	}
	n := b.nodes[0]
	if err := n.doJSON("POST", "/v1/tasks", b.rq.task, http.StatusCreated, nil); err != nil {
		return err
	}
	body, err := json.Marshal(b.rq.monitor)
	if err != nil {
		return err
	}
	return n.doJSON("POST", "/v1/monitors", body, http.StatusCreated, nil)
}

// rankResponse is the part of a POST /v1/rank answer the generator reads.
type rankResponse struct {
	Ranking []struct {
		Rank   int     `json:"rank"`
		Worker string  `json:"worker"`
		Score  float64 `json:"score"`
	} `json:"ranking"`
}

// rankAndEvents sends one page request and one event batch.
func (b *bench) rankAndEvents(i int, page rankPage, batch eventsBatch, timed bool) error {
	n := b.nodes[0]
	var resp rankResponse
	start, _, err := b.timedOp(timed, "rank", pageClass(page), func() error {
		return n.doJSON("POST", "/v1/rank", page.body, http.StatusOK, &resp)
	})
	if err != nil {
		return fmt.Errorf("rank page %d: %w", i, err)
	}
	if timed {
		b.checkPage(i, page, resp)
		if b.tr != nil {
			b.replayRank(i, page, start, time.Now())
		}
	}

	var ack struct {
		Applied int               `json:"applied"`
		Alarms  []json.RawMessage `json:"alarms"`
	}
	start, _, err = b.timedOp(timed, "events", "", func() error {
		if err := n.doJSON("POST", "/v1/monitors/"+monitorID+"/events", batch.body, http.StatusOK, &ack); err != nil {
			return err
		}
		if ack.Applied != eventBatch {
			return fmt.Errorf("monitor applied %d of %d events", ack.Applied, eventBatch)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("event batch %d: %w", i, err)
	}
	b.serve.sent++
	b.serve.alarms += len(ack.Alarms)
	if timed {
		b.serve.timedAlarms += len(ack.Alarms)
		if b.tr != nil {
			b.replayEvents(i, batch, start, time.Now())
		}
	}
	return nil
}

// checkPage checks a page's shape: k distinct workers ranked 1..k. Pages
// without a re-ranker are kept for the comparison with RankBy.
func (b *bench) checkPage(i int, page rankPage, resp rankResponse) {
	if len(resp.Ranking) != pageSize {
		b.checkFailed("page %d has %d entries, want %d", i, len(resp.Ranking), pageSize)
		return
	}
	seen := map[string]bool{}
	ids := make([]string, len(resp.Ranking))
	for j, e := range resp.Ranking {
		if e.Rank != j+1 || seen[e.Worker] {
			b.checkFailed("page %d entry %d: rank %d worker %q (duplicate %v)", i, j, e.Rank, e.Worker, seen[e.Worker])
			return
		}
		seen[e.Worker] = true
		ids[j] = e.Worker
	}
	if page.algorithm == "" {
		if b.serve.plain == nil {
			b.serve.plain = map[string][][]string{}
		}
		b.serve.plain[page.q] = append(b.serve.plain[page.q], ids)
	}
}
