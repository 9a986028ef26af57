package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"fairrank/internal/telemetry"
)

// Node is the cluster's view of the local fairserve process. Implemented
// by *server.Server; kept minimal so the cluster layer stays testable
// with a fake.
type Node interface {
	// Depth reports the local queue population.
	Depth() (queued, running int)
	// Datasets lists the dataset/snapshot names resolvable locally.
	Datasets() []string
	// SubmitLocal enqueues a raw wire spec on the local queue, bypassing
	// cluster forwarding. Dedup by canonical spec hash still applies.
	SubmitLocal(spec json.RawMessage) error
	// Hydrate fetches the named snapshot from peerURL (range-requested,
	// resumable) and registers it locally. Idempotent per name.
	Hydrate(name, peerURL string) error
}

// Config configures a Cluster.
type Config struct {
	// Self is this node's advertised base URL (peers reach it there).
	Self string
	// NodeID is this node's stable identity on the ring.
	NodeID string
	// Peers are the other nodes' base URLs (static membership; entries
	// equal to Self are ignored).
	Peers []string
	// Heartbeat is the liveness/steal/hydrate tick interval (default 1s).
	Heartbeat time.Duration
	// PeerTimeout bounds each peer HTTP call (default 2s).
	PeerTimeout time.Duration
	// SuspectAfter is how many consecutive missed heartbeats mark a peer
	// dead (default 3).
	SuspectAfter int
	// StealBatch is the most jobs one steal round requests (default 8).
	StealBatch int
	// DisableStealing turns the idle-node steal loop off.
	DisableStealing bool
	// DisableHydration turns automatic snapshot hydration off.
	DisableHydration bool
	// Metrics, when non-nil, receives the cluster telemetry series.
	Metrics *telemetry.Registry
	// Logf receives cluster log lines (e.g. log.Printf); nil disables.
	Logf func(format string, args ...any)
	// Client overrides the peer HTTP client (tests).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 2 * time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3
	}
	if c.StealBatch <= 0 {
		c.StealBatch = 8
	}
	return c
}

// peer is the tracked state of one configured peer URL.
type peer struct {
	URL      string
	ID       string // learned from the first successful ping
	Alive    bool
	Missed   int
	Queued   int
	Running  int
	Datasets map[string]bool
	LastSeen time.Time
}

// placement records a job this node forwarded to a ring owner, so owner
// death can trigger re-placement. The spec travels as raw wire bytes —
// re-placement replays exactly what the client submitted.
type placement struct {
	Spec    json.RawMessage
	Dataset string
	Owner   string // peer URL
	JobID   string // owner-side job ID
}

// ForwardResult is the owner's answer to a forwarded submission, relayed
// verbatim to the original client.
type ForwardResult struct {
	Status int
	Body   []byte
	Owner  string // owner's base URL
}

// Cluster federates this node with its configured peers. Create with
// New; Close stops the background loop.
type Cluster struct {
	cfg    Config
	node   Node
	client *http.Client
	logf   func(string, ...any)
	met    clusterMetrics

	mu        sync.Mutex
	peers     map[string]*peer // by URL
	ring      *ring
	epoch     uint64
	remote    map[string]*placement // spec hash → forwarded placement
	hydrating map[string]bool       // dataset name → hydration in flight
	closed    bool

	stop chan struct{}
	loop sync.WaitGroup
	bg   sync.WaitGroup // hydrations and other spawned work
}

// maxTracked bounds the forwarded-placement tracker; beyond it the
// oldest entries are dropped (their owners' own durability still holds —
// only automatic re-placement on owner death is lost for them).
const maxTracked = 4096

// New builds the cluster layer over node and starts its heartbeat loop.
func New(node Node, cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if node == nil {
		return nil, errors.New("cluster: New requires a Node")
	}
	if cfg.NodeID == "" {
		return nil, errors.New("cluster: NodeID is required")
	}
	if len(cfg.NodeID) > maxWireNodeID {
		return nil, fmt.Errorf("cluster: NodeID exceeds %d bytes", maxWireNodeID)
	}
	if cfg.Self == "" {
		return nil, errors.New("cluster: Self URL is required")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	c := &Cluster{
		cfg:       cfg,
		node:      node,
		client:    client,
		logf:      logf,
		peers:     map[string]*peer{},
		remote:    map[string]*placement{},
		hydrating: map[string]bool{},
		ring:      newRing([]string{cfg.NodeID}),
		epoch:     1,
		stop:      make(chan struct{}),
	}
	for _, url := range cfg.Peers {
		if url == "" || url == cfg.Self {
			continue
		}
		if _, dup := c.peers[url]; dup {
			continue
		}
		c.peers[url] = &peer{URL: url, Datasets: map[string]bool{}}
	}
	c.initMetrics()
	c.loop.Add(1)
	go c.run()
	return c, nil
}

// NodeID returns this node's ring identity.
func (c *Cluster) NodeID() string { return c.cfg.NodeID }

// Epoch returns the current membership epoch; it bumps whenever the set
// of live ring members changes.
func (c *Cluster) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Close stops the heartbeat loop and waits for in-flight background
// work. Safe to call once.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	c.loop.Wait()
	c.bg.Wait()
}

func (c *Cluster) run() {
	defer c.loop.Done()
	t := time.NewTicker(c.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.tick()
		}
	}
}

// tick is one heartbeat round: probe peers, advance the epoch on
// membership change, re-place orphaned placements, hydrate missing
// datasets, steal if idle, and sweep the placement tracker.
func (c *Cluster) tick() {
	c.probePeers()
	orphans := c.advanceEpoch()
	for hash, p := range orphans {
		c.replace(hash, p)
	}
	if !c.cfg.DisableHydration {
		c.hydrateMissing()
	}
	if !c.cfg.DisableStealing {
		c.stealRound()
	}
	c.sweepTracked()
}

// probePeers pings every configured peer in parallel and folds the
// answers into the peer table.
func (c *Cluster) probePeers() {
	c.mu.Lock()
	urls := make([]string, 0, len(c.peers))
	for url := range c.peers {
		urls = append(urls, url)
	}
	c.mu.Unlock()
	type probe struct {
		url  string
		ping PingStatus
		err  error
	}
	results := make(chan probe, len(urls))
	for _, url := range urls {
		go func(url string) {
			status, body, err := c.doJSON(http.MethodGet, url+"/v1/cluster/ping", nil, nil)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("cluster: ping status %d", status)
			}
			var ping PingStatus
			if err == nil {
				ping, err = DecodePing(body)
			}
			results <- probe{url: url, ping: ping, err: err}
		}(url)
	}
	// Gather every answer BEFORE taking the lock: answering an inbound
	// ping needs c.mu too, so holding it while awaiting our own outbound
	// pings would deadlock two nodes probing each other until timeout.
	gathered := make([]probe, 0, len(urls))
	for range urls {
		gathered = append(gathered, <-results)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, pr := range gathered {
		p := c.peers[pr.url]
		if p == nil {
			continue
		}
		if pr.err != nil {
			p.Missed++
			if p.Missed >= c.cfg.SuspectAfter && p.Alive {
				p.Alive = false
				c.logf("cluster: peer %s (%s) dead after %d missed heartbeats", p.URL, p.ID, p.Missed)
			}
			c.met.peerUp[p.URL].Set(0)
			continue
		}
		p.Missed = 0
		p.LastSeen = time.Now()
		p.ID = pr.ping.NodeID
		p.Queued = pr.ping.Queued
		p.Running = pr.ping.Running
		p.Datasets = map[string]bool{}
		for _, n := range pr.ping.Datasets {
			p.Datasets[n] = true
		}
		if !p.Alive {
			p.Alive = true
			c.logf("cluster: peer %s (%s) alive", p.URL, p.ID)
		}
		c.met.peerUp[p.URL].Set(1)
		c.met.peerQueued[p.URL].Set(float64(p.Queued))
	}
}

// advanceEpoch rebuilds the ring over the live membership. When it
// changed, the epoch bumps and every tracked placement whose owner left
// the ring is returned for re-placement.
func (c *Cluster) advanceEpoch() map[string]*placement {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := []string{c.cfg.NodeID}
	aliveURL := map[string]bool{}
	for _, p := range c.peers {
		if p.Alive && p.ID != "" {
			ids = append(ids, p.ID)
			aliveURL[p.URL] = true
		}
	}
	next := newRing(ids)
	if slicesEqual(next.nodes(), c.ring.nodes()) {
		return nil
	}
	c.ring = next
	c.epoch++
	c.met.epoch.Set(float64(c.epoch))
	c.met.setRingShare(next)
	c.logf("cluster: epoch %d, ring members %v", c.epoch, next.nodes())
	orphans := map[string]*placement{}
	for hash, p := range c.remote {
		if !aliveURL[p.Owner] {
			orphans[hash] = p
			delete(c.remote, hash)
		}
	}
	return orphans
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replace re-places one orphaned job after its owner died: to the new
// ring owner when one is alive and holds the dataset, locally otherwise.
// Determinism and spec-hash dedup make the occasional duplicate run
// (the dead owner may have finished the job already) harmless.
func (c *Cluster) replace(hash string, p *placement) {
	c.met.replacements.Inc()
	if fw := c.PlaceJob(hash, p.Dataset, p.Spec); fw != nil && fw.Status < 300 {
		c.logf("cluster: re-placed job %s (was on %s) onto %s", hash[:8], p.Owner, fw.Owner)
		return
	}
	if err := c.node.SubmitLocal(p.Spec); err != nil {
		// Keep the orphan tracked so the next epoch change retries it.
		c.logf("cluster: re-place %s locally: %v", hash[:8], err)
		c.mu.Lock()
		if _, exists := c.remote[hash]; !exists && len(c.remote) < maxTracked {
			c.remote[hash] = p
		}
		c.mu.Unlock()
		return
	}
	c.logf("cluster: re-placed job %s (was on %s) locally", hash[:8], p.Owner)
}

// PlaceJob routes one job submission by its canonical spec hash. A nil
// return means "run it locally" — this node owns the hash, the ring is
// empty, the owner lacks the dataset, or the forward failed (local
// execution is always the safe fallback). A non-nil result carries the
// owner's HTTP answer to relay, already tracked for re-placement when
// it was a success.
func (c *Cluster) PlaceJob(specHash, dsName string, body []byte) *ForwardResult {
	c.mu.Lock()
	ownerID := c.ring.owner(specHash)
	var owner *peer
	if ownerID != "" && ownerID != c.cfg.NodeID {
		for _, p := range c.peers {
			if p.Alive && p.ID == ownerID {
				owner = p
				break
			}
		}
	}
	if owner == nil || (dsName != "" && !owner.Datasets[dsName]) {
		c.mu.Unlock()
		return nil
	}
	url := owner.URL
	c.mu.Unlock()

	status, respBody, err := c.doForward(url, body)
	if err != nil {
		c.logf("cluster: forward to %s: %v (running locally)", url, err)
		return nil
	}
	if status < 300 {
		var resp struct {
			ID string `json:"id"`
		}
		_ = json.Unmarshal(respBody, &resp)
		c.track(specHash, dsName, url, resp.ID, body)
		c.met.forwards[url].Inc()
	}
	return &ForwardResult{Status: status, Body: respBody, Owner: url}
}

// doForward posts a job body to owner's submit route with the loop-guard
// header stamped.
func (c *Cluster) doForward(ownerURL string, body []byte) (int, []byte, error) {
	return c.doJSON(http.MethodPost, ownerURL+"/v1/jobs", body, func(r *http.Request) {
		r.Header.Set(HeaderForwarded, c.cfg.NodeID)
	})
}

// track remembers where a job went so owner death can re-place it.
func (c *Cluster) track(specHash, dsName, ownerURL, jobID string, spec []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.remote) >= maxTracked {
		for h := range c.remote { // evict an arbitrary entry; see maxTracked
			delete(c.remote, h)
			break
		}
	}
	c.remote[specHash] = &placement{
		Spec:    append(json.RawMessage(nil), spec...),
		Dataset: dsName,
		Owner:   ownerURL,
		JobID:   jobID,
	}
}

// sweepTracked probes a few tracked placements per tick and drops those
// whose owner reports a terminal job, bounding the tracker to jobs that
// still need the safety net.
func (c *Cluster) sweepTracked() {
	const perTick = 8
	type probe struct {
		hash  string
		url   string
		jobID string
	}
	c.mu.Lock()
	var probes []probe
	for hash, p := range c.remote {
		if len(probes) >= perTick {
			break
		}
		if p.JobID != "" {
			probes = append(probes, probe{hash: hash, url: p.Owner, jobID: p.JobID})
		}
	}
	c.mu.Unlock()
	for _, pr := range probes {
		status, body, err := c.doJSON(http.MethodGet, pr.url+"/v1/jobs/"+pr.jobID, nil, func(r *http.Request) {
			r.Header.Set(HeaderScatter, c.cfg.NodeID)
		})
		if err != nil {
			continue // owner unreachable; epoch logic owns that case
		}
		var j struct {
			State string `json:"state"`
		}
		terminal := status == http.StatusNotFound ||
			(status == http.StatusOK && json.Unmarshal(body, &j) == nil && terminalState(j.State))
		if terminal {
			c.mu.Lock()
			delete(c.remote, pr.hash)
			c.mu.Unlock()
		}
	}
}

// terminalState mirrors jobs.State.Terminal over the wire without
// importing the jobs package.
func terminalState(s string) bool {
	switch s {
	case "done", "failed", "canceled", "stolen":
		return true
	}
	return false
}

// stealRound runs the thief side of work-stealing: when the local queue
// is empty, claim a batch from the most-loaded live peer, enqueue the
// jobs locally, and ack the claims that landed. Claims that fail to
// land are simply not acked — they expire on the victim and requeue.
func (c *Cluster) stealRound() {
	if queued, _ := c.node.Depth(); queued > 0 {
		return
	}
	c.mu.Lock()
	var victim *peer
	for _, p := range c.peers {
		if p.Alive && p.Queued > 0 && (victim == nil || p.Queued > victim.Queued) {
			victim = p
		}
	}
	var url string
	if victim != nil {
		url = victim.URL
	}
	c.mu.Unlock()
	if victim == nil {
		return
	}
	start := time.Now()
	reqBody, _ := json.Marshal(StealRequest{
		Thief:    c.cfg.NodeID,
		Max:      c.cfg.StealBatch,
		Datasets: c.node.Datasets(),
	})
	status, body, err := c.doJSON(http.MethodPost, url+"/v1/cluster/steal", reqBody, nil)
	if err != nil || status != http.StatusOK {
		return
	}
	resp, err := DecodeStealResponse(body)
	if err != nil {
		c.logf("cluster: steal from %s: %v", url, err)
		return
	}
	var acked []string
	for _, cl := range resp.Claims {
		if err := c.node.SubmitLocal(cl.Spec); err != nil {
			c.logf("cluster: stolen job %s did not land: %v", cl.JobID, err)
			continue
		}
		acked = append(acked, cl.Token)
	}
	if len(acked) == 0 {
		return
	}
	ackBody, _ := json.Marshal(AckRequest{Thief: c.cfg.NodeID, Tokens: acked})
	status, body, err = c.doJSON(http.MethodPost, url+"/v1/cluster/ack", ackBody, nil)
	if err != nil || status != http.StatusOK {
		// Lost ack: the claims expire and requeue on the victim; our
		// copies run too. Determinism makes the duplicates harmless.
		c.logf("cluster: ack to %s failed (status %d, err %v)", url, status, err)
		return
	}
	if ack, err := decodeAckResponse(body); err == nil && ack.Acked > 0 {
		c.met.steals[url].Add(int64(ack.Acked))
		c.met.stealSecs.Observe(time.Since(start).Seconds())
	}
}

func decodeAckResponse(data []byte) (AckResponse, error) {
	var a AckResponse
	if err := decodeStrict(data, &a); err != nil {
		return AckResponse{}, err
	}
	return a, nil
}

// hydrateMissing spawns hydration of every dataset a live peer
// advertises that this node lacks. One hydration per name at a time;
// failures retry naturally on later ticks (hydration resumes from the
// persisted upload session).
func (c *Cluster) hydrateMissing() {
	have := map[string]bool{}
	for _, n := range c.node.Datasets() {
		have[n] = true
	}
	c.mu.Lock()
	type want struct{ name, url string }
	var wants []want
	for _, p := range c.peers {
		if !p.Alive {
			continue
		}
		for name := range p.Datasets {
			if have[name] || c.hydrating[name] {
				continue
			}
			c.hydrating[name] = true
			wants = append(wants, want{name: name, url: p.URL})
		}
	}
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return
	}
	for _, w := range wants {
		c.bg.Add(1)
		go func(name, url string) {
			defer c.bg.Done()
			err := c.node.Hydrate(name, url)
			c.mu.Lock()
			delete(c.hydrating, name)
			c.mu.Unlock()
			if err != nil {
				c.logf("cluster: hydrate %q from %s: %v", name, url, err)
				return
			}
			c.met.hydrations[url].Inc()
			c.logf("cluster: hydrated %q from %s", name, url)
		}(w.name, w.url)
	}
}

// Ping assembles this node's heartbeat answer.
func (c *Cluster) Ping(queued, running, claimed int) PingStatus {
	return PingStatus{
		NodeID:   c.cfg.NodeID,
		Epoch:    c.Epoch(),
		Queued:   queued,
		Running:  running,
		Claimed:  claimed,
		Datasets: c.node.Datasets(),
	}
}

// PeerStatus is one peer's row in the GET /v1/cluster answer.
type PeerStatus struct {
	URL          string   `json:"url"`
	NodeID       string   `json:"node_id,omitempty"`
	Alive        bool     `json:"alive"`
	Queued       int      `json:"queued"`
	Running      int      `json:"running"`
	Datasets     []string `json:"datasets,omitempty"`
	LastSeenUnix int64    `json:"last_seen_unix,omitempty"`
}

// Status is the GET /v1/cluster body.
type Status struct {
	Enabled   bool         `json:"enabled"`
	NodeID    string       `json:"node_id,omitempty"`
	Self      string       `json:"self,omitempty"`
	Epoch     uint64       `json:"epoch,omitempty"`
	RingNodes []string     `json:"ring_nodes,omitempty"`
	Tracked   int          `json:"tracked_jobs,omitempty"`
	Peers     []PeerStatus `json:"peers,omitempty"`
}

// Status reports the cluster view for the status endpoint.
func (c *Cluster) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Enabled:   true,
		NodeID:    c.cfg.NodeID,
		Self:      c.cfg.Self,
		Epoch:     c.epoch,
		RingNodes: append([]string(nil), c.ring.nodes()...),
		Tracked:   len(c.remote),
	}
	for _, p := range c.peers {
		ps := PeerStatus{
			URL: p.URL, NodeID: p.ID, Alive: p.Alive,
			Queued: p.Queued, Running: p.Running,
		}
		if !p.LastSeen.IsZero() {
			ps.LastSeenUnix = p.LastSeen.Unix()
		}
		for name := range p.Datasets {
			ps.Datasets = append(ps.Datasets, name)
		}
		sort.Strings(ps.Datasets)
		st.Peers = append(st.Peers, ps)
	}
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].URL < st.Peers[j].URL })
	return st
}

// PeerRef identifies one live peer for scatter-gather fan-out.
type PeerRef struct {
	ID  string
	URL string
}

// AlivePeers returns the live peers, sorted by node ID so scatter-gather
// visits nodes in a stable order.
func (c *Cluster) AlivePeers() []PeerRef {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []PeerRef
	for _, p := range c.peers {
		if p.Alive {
			out = append(out, PeerRef{ID: p.ID, URL: p.URL})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DownPeers counts configured peers currently considered dead. A
// scatter-gather page assembled while this is non-zero is partial even
// though no fan-out call failed — the dead peers were never asked.
func (c *Cluster) DownPeers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, p := range c.peers {
		if !p.Alive {
			n++
		}
	}
	return n
}

// PeerTimeout exposes the per-peer call budget for scatter-gather.
func (c *Cluster) PeerTimeout() time.Duration { return c.cfg.PeerTimeout }

// Fetch performs one bounded, timeout-guarded GET against a peer URL on
// behalf of the server's scatter-gather reads, stamping the scatter
// loop guard so the peer answers from local state only.
func (c *Cluster) Fetch(url string) (int, []byte, error) {
	return c.doJSON(http.MethodGet, url, nil, func(r *http.Request) {
		r.Header.Set(HeaderScatter, c.cfg.NodeID)
	})
}

// doJSON performs one bounded peer call: per-call timeout, body capped
// at MaxMessageBytes, optional request mutation (headers).
func (c *Cluster) doJSON(method, url string, body []byte, mut func(*http.Request)) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.PeerTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if mut != nil {
		mut(req)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxMessageBytes+1))
	if err != nil {
		return 0, nil, err
	}
	if len(data) > MaxMessageBytes {
		return 0, nil, fmt.Errorf("cluster: response from %s exceeds %d bytes", url, MaxMessageBytes)
	}
	return resp.StatusCode, data, nil
}
