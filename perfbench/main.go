// Command perfbench is fairrank's end-to-end benchmark. It starts the real
// cmd/fairserve binary in fresh processes with empty data directories and
// drives them over loopback HTTP from this single process, one connection
// per node and one request at a time (a closed loop with one client).
//
// Usage, from the repository root (run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload audit-7300 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// they are the per-layer metrics of a traced run. README.md defines them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		root     = flag.String("root", ".", "checkout root; builds, inputs and data live under its .bench_build")
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", ")))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("bad flags: --seconds %v --trace %d", *seconds, *trace))
	}
	base := filepath.Join(*root, ".bench_build")
	if _, err := os.Stat(filepath.Join(base, "bin", "fairserve")); err != nil {
		fail(fmt.Errorf("missing fairserve binary (run through perfbench/run.sh): %w", err))
	}
	cfg := config{
		base:     base,
		workload: w,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		// setup_s is the median of three set-ups.
		setups: 3,
	}
	out, err := run(cfg)
	if err != nil {
		fail(err)
	}
	for _, line := range out.info {
		fmt.Println(line)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	for _, m := range out.metrics {
		metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(last))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
