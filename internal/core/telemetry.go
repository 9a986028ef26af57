package core

import "fairrank/internal/telemetry"

// This file bridges the engine to internal/telemetry. An Evaluator
// always carries an engineMetrics; when Config.Metrics is nil every
// field is a nil metric whose operations no-op, so the hot paths are
// instrumented unconditionally at the cost of a predicted branch.
//
// Counters are incremented at the existing batch sites (where the
// engine already counts computed pairs, countPairs), never per-EMD
// inside the distance kernels — telemetry must not add an atomic op per
// evaluation.

// Engine metric names, exported on Config.Metrics registries.
const (
	MetricEMDEvaluations = "fairrank_engine_emd_evaluations_total"
	MetricProbes         = "fairrank_engine_probes_total"
	MetricRuns           = "fairrank_engine_runs_total"
)

// engineMetrics holds the engine's telemetry handles. The zero value
// (all nil) is the disabled state.
type engineMetrics struct {
	emdEvals *telemetry.Counter // pair distances actually computed
	probes   *telemetry.Counter // candidate-attribute probes evaluated
	runs     *telemetry.Counter // completed core.Run sessions
}

// newEngineMetrics get-or-creates the engine's series on reg. A nil
// registry yields the zero (disabled) engineMetrics — telemetry.Registry
// methods are nil-safe, so no branching is needed here either.
func newEngineMetrics(reg *telemetry.Registry) engineMetrics {
	return engineMetrics{
		emdEvals: reg.Counter(MetricEMDEvaluations),
		probes:   reg.Counter(MetricProbes),
		runs:     reg.Counter(MetricRuns),
	}
}

// PreregisterMetrics creates the engine's metric series on reg with
// zero values, so scrape endpoints expose them from process start
// instead of after the first audit. Safe to call repeatedly; no-op on
// a nil registry.
func PreregisterMetrics(reg *telemetry.Registry) {
	newEngineMetrics(reg)
}
