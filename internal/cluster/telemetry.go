package cluster

import "fairrank/internal/telemetry"

// Metric names exported on the cluster's registry.
const (
	// MetricEpoch gauges the membership epoch; it bumps whenever the set
	// of live ring members changes.
	MetricEpoch = "fairrank_cluster_epoch"
	// MetricPeersAlive gauges how many configured peers are live.
	MetricPeersAlive = "fairrank_cluster_peers_alive"
	// MetricTracked gauges forwarded jobs still tracked for re-placement.
	MetricTracked = "fairrank_cluster_tracked_jobs"
	// MetricRingShare gauges each ring member's keyspace fraction,
	// labeled by node ID.
	MetricRingShare = "fairrank_cluster_ring_share"
	// MetricPeerUp gauges per-peer liveness (1 alive, 0 dead/unknown).
	MetricPeerUp = "fairrank_cluster_peer_up"
	// MetricPeerQueued gauges each live peer's last-reported queue depth.
	MetricPeerQueued = "fairrank_cluster_peer_queued"
	// MetricForwards counts job submissions forwarded to each ring owner.
	MetricForwards = "fairrank_cluster_forwards_total"
	// MetricSteals counts jobs successfully stolen (acked) from each peer.
	MetricSteals = "fairrank_cluster_steals_total"
	// MetricHydrations counts snapshots hydrated from each peer.
	MetricHydrations = "fairrank_cluster_hydrations_total"
	// MetricReplacements counts re-placements triggered by owner death.
	MetricReplacements = "fairrank_cluster_replacements_total"
	// MetricStealSeconds is the steal-round latency histogram
	// (request → acked handoff).
	MetricStealSeconds = "fairrank_cluster_steal_seconds"
)

// clusterMetrics resolves the per-peer series once at construction
// (membership is static) and the per-ring-member series lazily as IDs
// are learned from pings. A cluster without a registry keeps the zero
// value: every handle is nil, every map lookup yields nil, and nil
// metrics no-op.
type clusterMetrics struct {
	reg          *telemetry.Registry
	epoch        *telemetry.Gauge
	replacements *telemetry.Counter
	stealSecs    *telemetry.Histogram
	peerUp       map[string]*telemetry.Gauge
	peerQueued   map[string]*telemetry.Gauge
	forwards     map[string]*telemetry.Counter
	steals       map[string]*telemetry.Counter
	hydrations   map[string]*telemetry.Counter
	lastShare    map[string]bool // ring members with a non-zero share gauge
}

func (c *Cluster) initMetrics() {
	reg := c.cfg.Metrics
	if reg == nil {
		return
	}
	m := clusterMetrics{
		reg:          reg,
		epoch:        reg.Gauge(MetricEpoch),
		replacements: reg.Counter(MetricReplacements),
		stealSecs:    reg.Histogram(MetricStealSeconds, telemetry.DefBuckets()),
		peerUp:       map[string]*telemetry.Gauge{},
		peerQueued:   map[string]*telemetry.Gauge{},
		forwards:     map[string]*telemetry.Counter{},
		steals:       map[string]*telemetry.Counter{},
		hydrations:   map[string]*telemetry.Counter{},
		lastShare:    map[string]bool{},
	}
	peerLabel := func(url string) telemetry.Label { return telemetry.Label{Key: "peer", Value: url} }
	for url := range c.peers {
		m.peerUp[url] = reg.Gauge(MetricPeerUp, peerLabel(url))
		m.peerQueued[url] = reg.Gauge(MetricPeerQueued, peerLabel(url))
		m.forwards[url] = reg.Counter(MetricForwards, peerLabel(url))
		m.steals[url] = reg.Counter(MetricSteals, peerLabel(url))
		m.hydrations[url] = reg.Counter(MetricHydrations, peerLabel(url))
	}
	reg.GaugeFunc(MetricPeersAlive, func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, p := range c.peers {
			if p.Alive {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc(MetricTracked, func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.remote))
	})
	m.epoch.Set(1)
	c.met = m
}

// setRingShare refreshes the per-member keyspace gauges, zeroing members
// that left the ring. Called with c.mu held (ring reads).
func (m *clusterMetrics) setRingShare(r *ring) {
	if m.reg == nil {
		return
	}
	share := r.share()
	for id := range m.lastShare {
		if _, still := share[id]; !still {
			m.reg.Gauge(MetricRingShare, telemetry.Label{Key: "node", Value: id}).Set(0)
			delete(m.lastShare, id)
		}
	}
	for id, frac := range share {
		m.reg.Gauge(MetricRingShare, telemetry.Label{Key: "node", Value: id}).Set(frac)
		m.lastShare[id] = true
	}
}
