// Package drift is the continuous-audit subsystem: it turns the
// point-in-time unfairness score of the paper — already incremental in
// internal/monitor, but with unbounded history — into windowed estimates
// a long-running marketplace can alarm on.
//
// Two estimators bound the history. Window replays, incrementally, only
// the last W effective events: admissions and retractions both go through
// the monitor's O(k + log k) delta machinery, and the windowed value is
// bit-identical to rebuilding a fresh monitor from the window's contents
// (the differential suite pins this). Decay is the same monitor fed
// weights that double every half-life (in events) — no retraction
// bookkeeping, one delta update per event — for unbounded streams where
// "recent" should fade smoothly rather than fall off a cliff.
//
// Watch drives both (plus the unbounded monitor) from one event stream
// and evaluates named alarm rules after every event: "threshold" (fixed
// level), "delta-over-window" (rise against the estimate Lookback events
// ago) and "window-vs-baseline" (divergence from a sealed baseline).
// Hysteresis, cooldown and warmup make the alarm lifecycle
// flap-resistant; AlarmState round-trips through the server's WAL so a
// restart neither loses nor re-fires an active alarm. Transitions are
// published through Hub to SSE subscribers of
// GET /v1/monitors/{id}/events.
package drift
