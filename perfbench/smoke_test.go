package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// TestSmoke runs every workload briefly, untraced and traced, with the
// output checks on, and requires zero failures and exactly the metric
// names and units BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	base := t.TempDir()
	build := exec.Command("go", "build", "-o", filepath.Join(base, "bin", "fairserve"), "fairrank/cmd/fairserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build fairserve: %v\n%s", err, out)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", wl.Name)
		}
	}
	// Every workload runs, including cluster-7300, which BENCHMARK.json
	// leaves out (see NOTES.md).
	for _, name := range workloadNames() {
		w := workloads[name]
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			out, err := run(config{base: base, workload: w, seed: 7, seconds: 300 * time.Millisecond, trace: trace, setups: 1})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if out.attempted == 0 || out.failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed\n%v", name, trace, out.failed, out.attempted, out.info)
			}
			if got, want := metricUnits(out.metrics), declared(want); !slices.Equal(got, want) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json declares %v", name, trace, got, want)
			}
		}
	}
}

func metricUnits(ms []metric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.name + " " + m.unit
	}
	slices.Sort(out)
	return out
}

func declared(ms []struct{ Name, Unit string }) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name + " " + m.Unit
	}
	slices.Sort(out)
	return out
}
