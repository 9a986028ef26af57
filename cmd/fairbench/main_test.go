package main

import (
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/telemetry"
)

func TestRunTablesReducedScale(t *testing.T) {
	var b strings.Builder
	if err := runTables(&b, nil, "1", 100, 7, 10, "", "", "", 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"table1: 100 workers", "unbalanced", "balanced", "all-attributes", "f5 EMD"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunTablesAllWithCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	var b strings.Builder
	if err := runTables(&b, nil, "all", 60, 7, 10, path, "", "", 2, 1, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"table1", "table2", "table3", "f6 EMD"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Tables 1-2: 5 algos × 5 funcs each; table 3: 5 × 4; plus 3 headers.
	want := 3 + 25 + 25 + 20
	if len(recs) != want {
		t.Fatalf("%d csv rows, want %d", len(recs), want)
	}
}

func TestRunTablesMarkdownAndJSON(t *testing.T) {
	dir := t.TempDir()
	md := filepath.Join(dir, "out.md")
	js := filepath.Join(dir, "out.json")
	var b strings.Builder
	if err := runTables(&b, nil, "1", 60, 7, 10, "", md, js, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	mdData, err := os.ReadFile(md)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mdData), "| algorithm |") {
		t.Errorf("markdown output:\n%s", mdData)
	}
	jsData, err := os.ReadFile(js)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(jsData), "\"experiment\": \"table1\"") {
		t.Errorf("json output:\n%s", jsData)
	}
}

func TestRunTablesUnknown(t *testing.T) {
	var b strings.Builder
	if err := runTables(&b, nil, "9", 50, 1, 10, "", "", "", 1, 1, nil); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestRunTablesBadCSVPath(t *testing.T) {
	var b strings.Builder
	if err := runTables(&b, nil, "1", 50, 1, 10, "/nonexistent/dir/out.csv", "", "", 1, 1, nil); err == nil {
		t.Error("bad csv path accepted")
	}
}

func TestRunFigure1(t *testing.T) {
	var b strings.Builder
	if err := runFigure1(&b, 10, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Figure 1 toy example",
		"Gender=Male ∧ Language=English",
		"exhaustive optimum: 0.500 — unbalanced matches it (0.500)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRunExhaustiveDemo(t *testing.T) {
	var b strings.Builder
	if err := runExhaustiveDemo(&b, 7, 10, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "budget exceeded") {
		t.Errorf("six-attribute exhaustive did not blow the budget:\n%s", out)
	}
	if !strings.Contains(out, "restricted to 2 attributes: optimum") {
		t.Errorf("two-attribute exhaustive missing:\n%s", out)
	}
}

func TestVerdict(t *testing.T) {
	if verdict(0.5, 0.5) != "matches" {
		t.Error("equal should match")
	}
	if verdict(0.4, 0.5) != "is below" {
		t.Error("lower should be below")
	}
}

func TestRunTablesMultiSeed(t *testing.T) {
	var b strings.Builder
	if err := runTables(&b, nil, "1", 60, 7, 10, "", "", "", 2, 3, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "3 seeds") || !strings.Contains(out, "±") {
		t.Errorf("multi-seed output missing aggregation markers:\n%s", out)
	}
}

func TestRunSweepUShape(t *testing.T) {
	var b strings.Builder
	if err := runSweep(&b, nil, 300, 7, 10, 5, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "unfairness vs α") {
		t.Fatalf("sweep output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2+5 {
		t.Fatalf("%d lines, want 7", len(lines))
	}
	// Parse the unfairness column and check the U shape: extremes above
	// the middle.
	var vals []float64
	for _, line := range lines[2:] {
		fields := strings.Fields(line)
		var v float64
		if _, err := fmt.Sscanf(fields[1], "%f", &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		vals = append(vals, v)
	}
	mid := vals[len(vals)/2]
	if !(vals[0] > mid && vals[len(vals)-1] > mid) {
		t.Fatalf("no U shape: %v", vals)
	}
}

func TestRunSweepValidation(t *testing.T) {
	var b strings.Builder
	if err := runSweep(&b, nil, 50, 1, 10, 1, nil); err == nil {
		t.Error("points=1 accepted")
	}
}

func TestBenchTelemetry(t *testing.T) {
	ctx, tracer := telemetry.WithTracer(context.Background(), "fairbench")
	bt := &benchTelemetry{ctx: ctx, reg: telemetry.NewRegistry()}
	var b strings.Builder
	if err := runSweep(&b, nil, 60, 7, 10, 3, bt); err != nil {
		t.Fatal(err)
	}
	if err := runTables(&b, nil, "1", 50, 7, 10, "", "", "", 1, 1, bt); err != nil {
		t.Fatal(err)
	}
	snap := bt.reg.Snapshot()
	if snap.Counters[core.MetricEMDEvaluations] <= 0 {
		t.Errorf("registry missing %s after sweep+table", core.MetricEMDEvaluations)
	}
	tree := tracer.Finish()
	if tree == nil || tree.Name != "fairbench" {
		t.Fatalf("span tree root = %+v, want fairbench", tree)
	}
	phases := map[string]bool{}
	tree.Walk(func(st *telemetry.SpanTree) { phases[st.Name] = true })
	for _, want := range []string{"run", "scan", "emd"} {
		if !phases[want] {
			t.Errorf("span tree missing phase %q", want)
		}
	}
}

func TestBenchTelemetryNilSafe(t *testing.T) {
	var b strings.Builder
	if err := runFigure1(&b, 10, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Figure 1") {
		t.Errorf("figure output:\n%s", b.String())
	}
}
