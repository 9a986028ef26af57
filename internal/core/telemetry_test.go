package core

import (
	"context"
	"encoding/json"
	"testing"

	"fairrank/internal/emd"
	"fairrank/internal/telemetry"
)

// TestRunSpanTreeCoversPhases pins the tentpole tracing contract: a
// core.Run under a tracer-enabled context yields a span tree whose root
// is "run" and whose descendants cover every engine phase — attribute
// scan, per-attribute probe, scatter split and the average (emd).
func TestRunSpanTreeCoversPhases(t *testing.T) {
	ds := randomDataset(t, 400, 11)
	ctx, tr := telemetry.WithTracer(context.Background(), "audit")
	res, err := Run(ctx, Spec{Algorithm: "balanced", Dataset: ds, Func: scoreFunc})
	if err != nil {
		t.Fatal(err)
	}
	if res == nil || len(res.Steps) == 0 {
		t.Fatal("balanced run produced no steps")
	}
	tree := tr.Finish()
	if tree == nil || tree.Name != "audit" {
		t.Fatalf("root tree = %+v, want name audit", tree)
	}
	seen := map[string]int{}
	tree.Walk(func(st *telemetry.SpanTree) { seen[st.Name]++ })
	for _, phase := range []string{"run", "scan", "probe", "split", "emd"} {
		if seen[phase] == 0 {
			t.Errorf("span tree missing phase %q (saw %v)", phase, seen)
		}
	}
	if seen["probe"] < seen["scan"] {
		t.Errorf("fewer probe spans (%d) than scan rounds (%d)", seen["probe"], seen["scan"])
	}

	// The run span must carry the algorithm attribute and nest under the
	// caller's root.
	if len(tree.Children) != 1 || tree.Children[0].Name != "run" {
		t.Fatalf("root children = %+v, want single run span", tree.Children)
	}
	if got := tree.Children[0].Attrs["algorithm"]; got != "balanced" {
		t.Errorf("run span algorithm attr = %v, want balanced", got)
	}

	// The tree must survive a JSON round-trip (the -telemetry-json path).
	raw, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back telemetry.SpanTree
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("span JSON does not round-trip: %v", err)
	}
	if back.Name != "audit" {
		t.Errorf("decoded root = %q, want audit", back.Name)
	}
}

// TestRunSpanTreeWithoutTracer pins that tracing is strictly opt-in: a
// plain context produces no spans and the run still succeeds.
func TestRunSpanTreeWithoutTracer(t *testing.T) {
	ds := randomDataset(t, 200, 12)
	if _, err := Run(context.Background(), Spec{Dataset: ds, Func: scoreFunc}); err != nil {
		t.Fatal(err)
	}
}

// TestRunTelemetryCounters pins the counter contract against RunStats:
// on a fresh evaluator the EMD-evaluation counter equals the run's
// PairsComputed (countPairs feeds both), and probes/runs are recorded.
// The exact average of the default mode computes no pair distance; the KS
// metric's pair path does.
func TestRunTelemetryCounters(t *testing.T) {
	ds := randomDataset(t, 400, 13)
	for _, metric := range []emd.Metric{emd.MetricEMD, emd.MetricKS} {
		reg := telemetry.NewRegistry()
		res, err := Run(context.Background(), Spec{
			Dataset: ds, Func: scoreFunc, Config: Config{Metric: metric, Metrics: reg},
		})
		if err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		if got := snap.Counters[MetricEMDEvaluations]; got != int64(res.Stats.PairsComputed) {
			t.Errorf("%v: %s = %d, want PairsComputed = %d", metric, MetricEMDEvaluations, got, res.Stats.PairsComputed)
		}
		if (res.Stats.PairsComputed == 0) != (metric == emd.MetricEMD) {
			t.Errorf("%v: PairsComputed = %d", metric, res.Stats.PairsComputed)
		}
		if snap.Counters[MetricProbes] == 0 {
			t.Errorf("%v: probe counter stayed zero across a balanced run", metric)
		}
		if got := snap.Counters[MetricRuns]; got != 1 {
			t.Errorf("%v: %s = %d, want 1", metric, MetricRuns, got)
		}
	}
}

// TestRunSharedRegistryAccumulates pins the shared-registry semantics the
// server relies on: two evaluators configured with the same registry
// accumulate into the same counters instead of clobbering each other. The
// KS metric's pair path counts its distances.
func TestRunSharedRegistryAccumulates(t *testing.T) {
	ds := randomDataset(t, 300, 14)
	reg := telemetry.NewRegistry()
	spec := Spec{Dataset: ds, Func: scoreFunc, Config: Config{Metric: emd.MetricKS, Metrics: reg}}
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	first := reg.Snapshot().Counters[MetricEMDEvaluations]
	if _, err := Run(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricEMDEvaluations] <= first {
		t.Errorf("second run did not accumulate: %d then %d",
			first, snap.Counters[MetricEMDEvaluations])
	}
	if got := snap.Counters[MetricRuns]; got != 2 {
		t.Errorf("%s = %d, want 2", MetricRuns, got)
	}
}

// TestPreregisterMetrics pins that a scrape endpoint exposes every engine
// series (zero-valued) before the first audit runs.
func TestPreregisterMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	PreregisterMetrics(reg)
	snap := reg.Snapshot()
	for _, name := range []string{
		MetricEMDEvaluations, MetricProbes, MetricRuns,
	} {
		if v, ok := snap.Counters[name]; !ok || v != 0 {
			t.Errorf("preregistered counter %s = %d, %v; want 0, true", name, v, ok)
		}
	}
}

// TestTelemetryIdenticalResults pins that attaching telemetry never
// changes the audit outcome: same unfairness trajectory, traced or not.
func TestTelemetryIdenticalResults(t *testing.T) {
	ds := randomDataset(t, 400, 17)
	plain, err := Run(context.Background(), Spec{Dataset: ds, Func: scoreFunc})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ctx, tr := telemetry.WithTracer(context.Background(), "audit")
	traced, err := Run(ctx, Spec{Dataset: ds, Func: scoreFunc, Config: Config{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if len(plain.Steps) != len(traced.Steps) {
		t.Fatalf("step counts differ: %d vs %d", len(plain.Steps), len(traced.Steps))
	}
	for i := range plain.Steps {
		if plain.Steps[i].AvgDistance != traced.Steps[i].AvgDistance {
			t.Fatalf("step %d avg distance differs: %v vs %v",
				i, plain.Steps[i].AvgDistance, traced.Steps[i].AvgDistance)
		}
	}
}

// BenchmarkTelemetryOverhead measures the full audit path under the
// three telemetry configurations; two gates of `make gates` compare them
// in CI and fail the build when an enabled path exceeds its budget. A
// fresh evaluator per iteration makes every variant score the workers and
// build the row space.
//
//   - telemetry=off      — no registry, no tracer: the baseline.
//   - telemetry=metrics  — counters, the always-on production
//     configuration (what fairserve enables for every audit request);
//     gated at 5%.
//   - telemetry=trace    — metrics plus span tracing, the opt-in
//     -telemetry-json diagnostic path. Spans cost two clock reads and a
//     few allocations each, which a deliberately tiny benchmark audit
//     makes visible; gated loosely to catch regressions only.
//
// The arms run in the order off, metrics, trace, trace, metrics, off: the
// ABBA order of BenchmarkDriftAlarm for each gated pair, so the k-th off
// run and the k-th run of either candidate are paired with each arm first
// as often as second, and an advantage for whichever runs later cancels
// instead of biasing the ratio.
func BenchmarkTelemetryOverhead(b *testing.B) {
	ds := randomDataset(b, 4000, 21)
	audit := func(b *testing.B, reg *telemetry.Registry, trace bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e, err := NewEvaluator(ds, scoreFunc, Config{Metrics: reg})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			var tr *telemetry.Tracer
			if trace {
				ctx, tr = telemetry.WithTracer(ctx, "bench")
			}
			if _, err := Run(ctx, Spec{Evaluator: e}); err != nil {
				b.Fatal(err)
			}
			tr.Finish()
		}
	}
	off := func(b *testing.B) { audit(b, nil, false) }
	metrics := func(b *testing.B) { audit(b, telemetry.NewRegistry(), false) }
	trace := func(b *testing.B) { audit(b, telemetry.NewRegistry(), true) }
	b.Run("order=abc/telemetry=off", off)
	b.Run("order=abc/telemetry=metrics", metrics)
	b.Run("order=abc/telemetry=trace", trace)
	b.Run("order=cba/telemetry=trace", trace)
	b.Run("order=cba/telemetry=metrics", metrics)
	b.Run("order=cba/telemetry=off", off)
}
