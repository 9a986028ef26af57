package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/simulate"
	"fairrank/internal/telemetry"
)

func TestRunGeneratedDataset(t *testing.T) {
	var b strings.Builder
	err := run(&b, "", "", 150, 42, "balanced", 0.5, "", 10, "emd", "", false, false, 0, false, "", "", "", false, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"150 workers", "balanced found unfairness", "Gender="} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunSnapshotMatchesGenerated pins the -snapshot path: auditing a
// memory-mapped snapshot of a generated population produces byte-identical
// CLI output to auditing the in-memory population, modulo elapsed times.
func TestRunSnapshotMatchesGenerated(t *testing.T) {
	elapsed := regexp.MustCompile(`\d+(\.\d+)?(n|µ|m)?s\b`)
	ds, err := simulate.PaperWorkers(150, 42)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "workers.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var mem, mapped strings.Builder
	if err := run(&mem, "", "", 150, 42, "balanced", 0.5, "", 10, "emd", "", false, true, 0, false, "", "", "", false, 0, ""); err != nil {
		t.Fatal(err)
	}
	if err := run(&mapped, "", path, 0, 42, "balanced", 0.5, "", 10, "emd", "", false, true, 0, false, "", "", "", false, 0, ""); err != nil {
		t.Fatal(err)
	}
	memOut := elapsed.ReplaceAllString(mem.String(), "T")
	mappedOut := elapsed.ReplaceAllString(mapped.String(), "T")
	if memOut != mappedOut {
		t.Errorf("snapshot audit diverges from in-memory audit:\n--- mem\n%s\n--- snapshot\n%s", memOut, mappedOut)
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	for _, algo := range []string{"balanced", "unbalanced", "r-balanced", "r-unbalanced", "all-attributes"} {
		var b strings.Builder
		if err := run(&b, "", "", 100, 1, algo, 1, "", 10, "emd", "", false, false, 0, false, "", "", "", false, 0, ""); err != nil {
			t.Errorf("%s: %v", algo, err)
		}
	}
}

func TestRunWithTreeAndFigure(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "", "", 100, 2, "unbalanced", 0.5, "", 10, "emd", "", true, true, 0, false, "", "", "", false, 0, ""); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "step 1") {
		t.Error("tree trace missing")
	}
	if !strings.Contains(out, "unfairness(P,") {
		t.Error("figure missing")
	}
}

func TestRunFromCSVFile(t *testing.T) {
	ds, err := simulate.PaperWorkers(60, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "workers.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var b strings.Builder
	if err := run(&b, path, "", 0, 3, "all-attributes", 0.5, "", 10, "emd", "", false, false, 0, false, "", "", "", false, 0, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "60 workers") {
		t.Errorf("output:\n%s", b.String())
	}
}

func TestRunErrors(t *testing.T) {
	var b strings.Builder
	cases := []struct {
		name string
		err  func() error
	}{
		{"data and gen exclusive", func() error {
			return run(&b, "x.csv", "", 10, 1, "balanced", 0.5, "", 10, "emd", "", false, false, 0, false, "", "", "", false, 0, "")
		}},
		{"missing file", func() error {
			return run(&b, "/nonexistent/x.csv", "", 0, 1, "balanced", 0.5, "", 10, "emd", "", false, false, 0, false, "", "", "", false, 0, "")
		}},
		{"bad algorithm", func() error {
			return run(&b, "", "", 50, 1, "quantum", 0.5, "", 10, "emd", "", false, false, 0, false, "", "", "", false, 0, "")
		}},
		{"bad alpha", func() error {
			return run(&b, "", "", 50, 1, "balanced", 1.5, "", 10, "emd", "", false, false, 0, false, "", "", "", false, 0, "")
		}},
		{"bad metric", func() error {
			return run(&b, "", "", 50, 1, "balanced", 0.5, "", 10, "manhattan2", "", false, false, 0, false, "", "", "", false, 0, "")
		}},
		{"bad weights", func() error {
			return run(&b, "", "", 50, 1, "balanced", 0.5, "LanguageTest", 10, "emd", "", false, false, 0, false, "", "", "", false, 0, "")
		}},
		{"bad weight value", func() error {
			return run(&b, "", "", 50, 1, "balanced", 0.5, "LanguageTest=lots", 10, "emd", "", false, false, 0, false, "", "", "", false, 0, "")
		}},
		{"bad attr", func() error {
			return run(&b, "", "", 50, 1, "balanced", 0.5, "", 10, "emd", "Charisma", false, false, 0, false, "", "", "", false, 0, "")
		}},
	}
	for _, c := range cases {
		if c.err() == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestRunWithSignificance(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "", "", 100, 6, "balanced", 0.5, "", 10, "emd", "", false, false, 50, false, "", "", "", false, 0, ""); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "permutation test (50 rounds)") {
		t.Errorf("significance output missing:\n%s", out)
	}
	if !strings.Contains(out, "p = ") {
		t.Errorf("p-value missing:\n%s", out)
	}
}

func TestRunWithExplain(t *testing.T) {
	var b strings.Builder
	if err := run(&b, "", "", 150, 8, "balanced", 1, "", 10, "emd", "", false, false, 0, true, "", "", "", false, 0, ""); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "attribute importance") || !strings.Contains(out, "marginal") {
		t.Errorf("explain output missing:\n%s", out)
	}
}

func TestRunWithWeightsAndAttrs(t *testing.T) {
	var b strings.Builder
	err := run(&b, "", "", 120, 5, "balanced", 0.5,
		"LanguageTest=0.8,ApprovalRate=0.2", 10, "l1", "Gender,Country", false, false, 0, false, "", "", "", false, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "metric: l1") {
		t.Errorf("output:\n%s", b.String())
	}
}

func TestRunWithInferredSchema(t *testing.T) {
	csv := "worker,city,gender,age,rating\n" +
		"a,Paris,F,30,4.5\nb,Lyon,M,40,3.0\nc,Paris,F,50,4.8\nd,Nice,M,35,2.2\n" +
		"e,Lyon,F,28,4.1\nf,Paris,M,61,3.3\ng,Nice,F,44,4.6\nh,Lyon,M,52,2.8\n"
	path := filepath.Join(t.TempDir(), "custom.csv")
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	err := run(&b, path, "", 0, 1, "all-attributes", 0.5, "rating=1", 5, "emd", "",
		false, false, 0, false, "gender,city,age", "rating", "worker", true, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "8 workers") || !strings.Contains(out, "gender=") {
		t.Errorf("inferred audit output:\n%s", out)
	}
}

func TestRunTelemetryJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telemetry.json")
	var b strings.Builder
	err := run(&b, "", "", 120, 9, "balanced", 0.5, "", 10, "emd", "", false, false, 0, false, "", "", "", false, 0, path)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("telemetry dump is not valid JSON: %v", err)
	}
	if rep.Spans == nil || rep.Spans.Name != "fairaudit" {
		t.Fatalf("span tree root = %+v, want name fairaudit", rep.Spans)
	}
	phases := map[string]bool{}
	rep.Spans.Walk(func(st *telemetry.SpanTree) { phases[st.Name] = true })
	for _, want := range []string{"run", "scan", "probe", "split", "emd"} {
		if !phases[want] {
			t.Errorf("span tree missing phase %q", want)
		}
	}
	if rep.Metrics.Counters[core.MetricProbes] <= 0 {
		t.Errorf("metrics snapshot missing %s", core.MetricProbes)
	}
}
