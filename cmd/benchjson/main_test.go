package main

import (
	"encoding/json"
	"strings"
	"testing"

	"fairrank/internal/core"
)

func TestBuildArtifact(t *testing.T) {
	bench := "goos: linux\n" +
		"BenchmarkTelemetryOverhead/telemetry=off-8 \t 5\t 90000000 ns/op\t 2048 B/op\t 30 allocs/op\n" +
		"BenchmarkTelemetryOverhead/telemetry=on-8 \t 5\t 91000000 ns/op\t 2100 B/op\t 31 allocs/op\n" +
		"PASS\n"
	a, err := build(strings.NewReader(bench), 150, 7, 10, "balanced")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(a.Benchmarks))
	}
	if a.Benchmarks[0].Name != "BenchmarkTelemetryOverhead/telemetry=off" ||
		a.Benchmarks[0].AllocsPerOp != 30 {
		t.Errorf("first benchmark: %+v", a.Benchmarks[0])
	}
	if a.Audit.Algorithm != "balanced" || a.Audit.Workers != 150 || a.Audit.Unfairness <= 0 {
		t.Errorf("audit info: %+v", a.Audit)
	}
	if a.Telemetry.Counters[core.MetricProbes] <= 0 {
		t.Errorf("telemetry snapshot missing %s: %+v", core.MetricProbes, a.Telemetry.Counters)
	}
	if a.Telemetry.Counters[core.MetricRuns] != 1 {
		t.Errorf("runs counter = %d, want 1", a.Telemetry.Counters[core.MetricRuns])
	}
	// The artifact must survive a JSON round-trip with its counters intact.
	raw, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back artifact
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Telemetry.Counters[core.MetricEMDEvaluations] != a.Telemetry.Counters[core.MetricEMDEvaluations] {
		t.Error("counters changed across JSON round-trip")
	}
}

func TestBuildBadAlgorithm(t *testing.T) {
	if _, err := build(strings.NewReader(""), 50, 1, 10, "quantum"); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}
