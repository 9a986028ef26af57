package monitor

import "fairrank/internal/telemetry"

// Monitor metric names, exported on the registry passed to SetMetrics.
const (
	MetricEvents          = "fairrank_monitor_events_total"
	MetricDistanceUpdates = "fairrank_monitor_distance_updates_total"
	MetricSumTreeUpdates  = "fairrank_monitor_sumtree_updates_total"
	MetricRebuilds        = "fairrank_monitor_rebuilds_total"
	MetricGroups          = "fairrank_monitor_groups"
	MetricWorkers         = "fairrank_monitor_workers"
)

// monitorMetrics holds the monitor's telemetry handles; the zero value
// (all nil) is the disabled state and every operation no-ops.
type monitorMetrics struct {
	joins    *telemetry.Counter // successful Join events
	leaves   *telemetry.Counter // successful Leave events
	rescores *telemetry.Counter // successful Rescore events

	distUpdates *telemetry.Counter // triangle entries recomputed by touch
	treeUpdates *telemetry.Counter // sum-tree point updates applied
	rebuilds    *telemetry.Counter // structural O(k²) rebuilds

	groups  *telemetry.Gauge // current non-empty group count
	workers *telemetry.Gauge // current tracked worker count
}

// sync publishes the population gauges. Gauges are set at event time
// rather than read live on scrape, so a concurrent /metrics handler never
// touches the monitor's (unsynchronized) maps.
func (mm *monitorMetrics) sync(m *Monitor) {
	mm.groups.Set(float64(len(m.order)))
	mm.workers.Set(float64(m.n))
}

// SetMetrics attaches a telemetry registry: event rates, delta-path work
// (distance and sum-tree updates vs. structural rebuilds) and population
// gauges become observable. Attach before feeding events; counters
// accumulate across monitors sharing one registry. A nil registry leaves
// metrics disabled.
func (m *Monitor) SetMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m.met = monitorMetrics{
		joins:       reg.Counter(MetricEvents, telemetry.Label{Key: "type", Value: "join"}),
		leaves:      reg.Counter(MetricEvents, telemetry.Label{Key: "type", Value: "leave"}),
		rescores:    reg.Counter(MetricEvents, telemetry.Label{Key: "type", Value: "rescore"}),
		distUpdates: reg.Counter(MetricDistanceUpdates),
		treeUpdates: reg.Counter(MetricSumTreeUpdates),
		rebuilds:    reg.Counter(MetricRebuilds),
		groups:      reg.Gauge(MetricGroups),
		workers:     reg.Gauge(MetricWorkers),
	}
	m.met.sync(m)
}
