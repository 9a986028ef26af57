package core

import (
	"strconv"
	"sync"

	"fairrank/internal/telemetry"
)

// This file bridges the engine to internal/telemetry. An Evaluator
// always carries an engineMetrics; when Config.Metrics is nil every
// field is a nil metric whose operations no-op, so the hot paths are
// instrumented unconditionally at the cost of a predicted branch.
//
// Counters are incremented at the existing batch sites (where the
// engine already counts computed pairs, countPairs), never per-EMD
// inside the distance kernels — telemetry must not add an atomic op per
// evaluation. Rep-cache occupancy is exported as gauges synced at run
// boundaries (syncGauges), including its per-shard distribution.

// Engine metric names, exported on Config.Metrics registries.
const (
	MetricEMDEvaluations = "fairrank_engine_emd_evaluations_total"
	MetricProbes         = "fairrank_engine_probes_total"
	MetricRuns           = "fairrank_engine_runs_total"
	MetricReps           = "fairrank_engine_reps"
	MetricRepShard       = "fairrank_engine_rep_cache_shard_entries"
)

// engineMetrics holds the engine's telemetry handles. The zero value
// (all nil) is the disabled state.
type engineMetrics struct {
	emdEvals *telemetry.Counter // pair distances actually computed
	probes   *telemetry.Counter // candidate-attribute probes evaluated
	runs     *telemetry.Counter // completed core.Run sessions

	reps      *telemetry.Gauge   // distinct representations interned
	repShards []*telemetry.Gauge // per-shard rep-cache occupancy
}

// engineMetricsByReg memoizes the resolved handle set per registry.
// Resolving the ~70 series (a 64-shard gauge vector plus the counters) costs tens of microseconds — fine once per process, but
// fairserve builds a fresh Evaluator per audit request against one
// shared registry, so the lookup result is cached by registry identity.
// A registry entry is retained for the registry's lifetime, which in
// every caller here is the process lifetime.
var engineMetricsByReg sync.Map // *telemetry.Registry → *engineMetrics

// engineMetricsFor returns the engine's metric handles on reg, resolving
// them on first use per registry. A nil registry yields the zero
// (disabled) engineMetrics.
func engineMetricsFor(reg *telemetry.Registry) engineMetrics {
	if reg == nil {
		return engineMetrics{}
	}
	if v, ok := engineMetricsByReg.Load(reg); ok {
		return *v.(*engineMetrics)
	}
	m := newEngineMetrics(reg)
	v, _ := engineMetricsByReg.LoadOrStore(reg, &m)
	return *v.(*engineMetrics)
}

// newEngineMetrics get-or-creates the engine's series on reg. A nil
// registry yields the zero (disabled) engineMetrics — telemetry.Registry
// methods are nil-safe, so no branching is needed here either.
func newEngineMetrics(reg *telemetry.Registry) engineMetrics {
	m := engineMetrics{
		emdEvals: reg.Counter(MetricEMDEvaluations),
		probes:   reg.Counter(MetricProbes),
		runs:     reg.Counter(MetricRuns),
		reps:     reg.Gauge(MetricReps),
	}
	if reg != nil {
		m.repShards = make([]*telemetry.Gauge, cacheShards)
		for i := 0; i < cacheShards; i++ {
			shard := telemetry.Label{Key: "shard", Value: strconv.Itoa(i)}
			m.repShards[i] = reg.Gauge(MetricRepShard, shard)
		}
	}
	return m
}

// syncGauges publishes the rep cache's occupancy — aggregate and per
// shard. Called at run boundaries, not on the hot path: cacheShards
// mutex hops per run is noise next to a partitioning search. The
// per-shard slice doubles as the sentinel of an attached registry.
func (m *engineMetrics) syncGauges(e *Evaluator) {
	if m.repShards == nil {
		return
	}
	m.reps.Set(float64(e.reps.count()))
	for i, n := range e.reps.shardLens() {
		m.repShards[i].Set(float64(n))
	}
}

// PreregisterMetrics creates the engine's metric series on reg with
// zero values, so scrape endpoints expose them from process start
// instead of after the first audit. Safe to call repeatedly; no-op on
// a nil registry.
func PreregisterMetrics(reg *telemetry.Registry) {
	engineMetricsFor(reg)
}
