package report

import (
	"context"
	"encoding/csv"
	"strings"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/histogram"
	"fairrank/internal/partition"
	"fairrank/internal/simulate"
)

func miniResult(t *testing.T) *simulate.Result {
	t.Helper()
	funcs, err := simulate.RandomFunctions()
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulate.RunParallel(simulate.Spec{
		Name: "mini", Workers: 80, Seed: 1, Funcs: funcs[:2],
		Algorithms: []simulate.AlgorithmID{simulate.AlgoBalanced, simulate.AlgoAllAttributes},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTableRendering(t *testing.T) {
	res := miniResult(t)
	var b strings.Builder
	if err := Table(&b, res); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Algorithm", "balanced", "all-attributes", "f1 EMD", "f2 time", "80 workers"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestTableEmpty(t *testing.T) {
	var b strings.Builder
	if err := Table(&b, nil); err == nil {
		t.Error("nil result accepted")
	}
	if err := Table(&b, &simulate.Result{}); err == nil {
		t.Error("empty result accepted")
	}
}

func TestCSVRendering(t *testing.T) {
	res := miniResult(t)
	var b strings.Builder
	if err := CSV(&b, res); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// header + 2 algorithms × 2 functions
	if len(records) != 5 {
		t.Fatalf("%d csv rows, want 5", len(records))
	}
	if records[0][0] != "experiment" || len(records[0]) != 9 {
		t.Fatalf("header = %v", records[0])
	}
}

func TestCSVEmpty(t *testing.T) {
	var b strings.Builder
	if err := CSV(&b, nil); err == nil {
		t.Error("nil result accepted")
	}
}

func TestHistogramASCII(t *testing.T) {
	h := histogram.MustNew(4, 0, 1)
	h.AddAll([]float64{0.1, 0.1, 0.9})
	out := HistogramASCII(h, 10)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines, want 4", len(lines))
	}
	if !strings.Contains(lines[0], "##########") {
		t.Errorf("fullest bin not full-width: %q", lines[0])
	}
	if strings.Contains(lines[1], "#") {
		t.Errorf("empty bin has bars: %q", lines[1])
	}
	// Degenerate width falls back to default.
	if out := HistogramASCII(h, 0); !strings.Contains(out, "#") {
		t.Error("zero width produced no bars")
	}
}

func TestHistogramASCIIEmpty(t *testing.T) {
	h := histogram.MustNew(3, 0, 1)
	out := HistogramASCII(h, 10)
	if strings.Contains(out, "#") {
		t.Errorf("empty histogram has bars:\n%s", out)
	}
}

func TestPartitioningFigure(t *testing.T) {
	res := miniResult(t)
	ds := res.Dataset
	funcs, _ := simulate.RandomFunctions()
	e, err := core.NewEvaluator(ds, funcs[0], core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	parts := partition.Split(ds, partition.Root(ds), 0)
	pt := &partition.Partitioning{Parts: parts}
	var b strings.Builder
	if err := Partitioning(&b, e, pt); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "unfairness(P, f1)") || !strings.Contains(out, "Gender=") {
		t.Errorf("figure output:\n%s", out)
	}
	if err := Partitioning(&b, e, nil); err == nil {
		t.Error("nil partitioning accepted")
	}
}

func TestTreeRendering(t *testing.T) {
	res := miniResult(t)
	funcs, _ := simulate.RandomFunctions()
	e, err := core.NewEvaluator(res.Dataset, funcs[0], core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.Run(context.Background(), core.Spec{Evaluator: e})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Tree(&b, e, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "balanced") || !strings.Contains(out, "step 1") {
		t.Errorf("tree output:\n%s", out)
	}
	if err := Tree(&b, e, nil); err == nil {
		t.Error("nil result accepted")
	}
}
