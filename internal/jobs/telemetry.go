package jobs

import "fairrank/internal/telemetry"

// Metric names exported on the queue's registry.
const (
	// MetricSubmitted counts accepted submissions that created a new job.
	MetricSubmitted = "fairrank_jobs_submitted_total"
	// MetricDeduped counts submissions coalesced onto an active job with
	// the same spec hash.
	MetricDeduped = "fairrank_jobs_deduped_total"
	// MetricCacheHits counts submissions answered by a done job's result
	// without a new run.
	MetricCacheHits = "fairrank_jobs_result_cache_hits_total"
	// MetricShed counts submissions rejected by admission control.
	MetricShed = "fairrank_jobs_shed_total"
	// MetricRuns counts executor invocations (runs actually started).
	MetricRuns = "fairrank_jobs_runs_total"
	// MetricCompleted counts terminal transitions, labeled by final state.
	MetricCompleted = "fairrank_jobs_completed_total"
	// MetricRecovered counts jobs requeued by crash recovery at startup.
	MetricRecovered = "fairrank_jobs_recovered_total"
	// MetricPersistErrors counts job-record writes the store rejected
	// (the scheduler keeps going; durability degrades until the store
	// recovers).
	MetricPersistErrors = "fairrank_jobs_persist_errors_total"
	// MetricEventsDropped counts events discarded because a subscriber
	// fell behind.
	MetricEventsDropped = "fairrank_jobs_events_dropped_total"
	// MetricClaims counts queued jobs handed to stealing peers under
	// claim tokens (steal.go).
	MetricClaims = "fairrank_jobs_steal_claims_total"
	// MetricClaimsExpired counts steal claims that timed out unacked and
	// returned their jobs to the ready heap.
	MetricClaimsExpired = "fairrank_jobs_steal_claims_expired_total"
	// MetricDepth gauges the live population, labeled by state
	// (queued/running).
	MetricDepth = "fairrank_jobs_depth"
	// MetricOldestAge gauges the age in seconds of the oldest queued job
	// (0 when idle) — the primary "is the pool keeping up" signal.
	MetricOldestAge = "fairrank_jobs_oldest_queued_age_seconds"
	// MetricWaitSeconds is the queue-wait histogram (enqueue → first run).
	MetricWaitSeconds = "fairrank_jobs_wait_seconds"
	// MetricRunSeconds is the run-latency histogram per run.
	MetricRunSeconds = "fairrank_jobs_run_seconds"
)

// queueMetrics resolves every series once at construction; nil-safe
// no-ops when the queue has no registry, mirroring the engine's pattern.
type queueMetrics struct {
	submitted     *telemetry.Counter
	deduped       *telemetry.Counter
	cacheHits     *telemetry.Counter
	shed          *telemetry.Counter
	runs          *telemetry.Counter
	done          *telemetry.Counter
	failed        *telemetry.Counter
	canceled      *telemetry.Counter
	stolen        *telemetry.Counter
	claims        *telemetry.Counter
	claimsExpired *telemetry.Counter
	recovered     *telemetry.Counter
	persistErrors *telemetry.Counter
	eventsDropped *telemetry.Counter
	depthQueued   *telemetry.Gauge
	depthRunning  *telemetry.Gauge
	waitSeconds   *telemetry.Histogram
	runSeconds    *telemetry.Histogram
}

func newQueueMetrics(reg *telemetry.Registry, oldestAge func() float64) queueMetrics {
	if reg == nil {
		return queueMetrics{}
	}
	state := func(v string) telemetry.Label { return telemetry.Label{Key: "state", Value: v} }
	reg.GaugeFunc(MetricOldestAge, oldestAge)
	return queueMetrics{
		submitted:     reg.Counter(MetricSubmitted),
		deduped:       reg.Counter(MetricDeduped),
		cacheHits:     reg.Counter(MetricCacheHits),
		shed:          reg.Counter(MetricShed),
		runs:          reg.Counter(MetricRuns),
		done:          reg.Counter(MetricCompleted, state(string(StateDone))),
		failed:        reg.Counter(MetricCompleted, state(string(StateFailed))),
		canceled:      reg.Counter(MetricCompleted, state(string(StateCanceled))),
		stolen:        reg.Counter(MetricCompleted, state(string(StateStolen))),
		claims:        reg.Counter(MetricClaims),
		claimsExpired: reg.Counter(MetricClaimsExpired),
		recovered:     reg.Counter(MetricRecovered),
		persistErrors: reg.Counter(MetricPersistErrors),
		eventsDropped: reg.Counter(MetricEventsDropped),
		depthQueued:   reg.Gauge(MetricDepth, state(string(StateQueued))),
		depthRunning:  reg.Gauge(MetricDepth, state(string(StateRunning))),
		waitSeconds:   reg.Histogram(MetricWaitSeconds, telemetry.DefBuckets()),
		runSeconds:    reg.Histogram(MetricRunSeconds, telemetry.DefBuckets()),
	}
}
