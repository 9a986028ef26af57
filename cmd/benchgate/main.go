// Command benchgate runs fairrank's in-process benchmark gates, the rows
// of the gates table. Run it from the module root:
//
//	go run ./cmd/benchgate > gates.json   # every gate (make gates)
//	go run ./cmd/benchgate drift-alarm    # the named gates only
//
// A row names a benchmark run and two of its sub-benchmarks, a baseline
// and a candidate, and bounds the candidate's overhead in percent. Each
// package's test binary is compiled once and run one process per round in
// the package directory, as go test runs it. The k-th baseline line is
// paired with the k-th candidate line, and the overhead is the median of
// the per-pair ratios: a pair ran side by side under the same host load,
// so pairing cancels the load's drift between rounds. Every selected row
// is evaluated; a summary goes to stderr, the JSON record of every row to
// stdout, and the exit status is 1 when a row is past its bound or could
// not be measured, 2 when a name matches no row.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// run is what a row measures; rows with equal runs share one measurement.
type run struct {
	Package   string `json:"package"` // relative to the module root
	Bench     string `json:"bench"`   // -test.bench regexp
	Benchtime string `json:"benchtime"`
	Rounds    int    `json:"rounds"`
}

type gate struct {
	Name string `json:"name"`
	run
	Baseline  string  `json:"baseline"`  // substring of the baseline sub-benchmark names
	Candidate string  `json:"candidate"` // substring of the candidate names, matched first
	BoundPct  float64 `json:"bound_pct"` // largest passing overhead
}

var gates = []gate{
	// The always-on metrics path within 5% of no telemetry; span tracing,
	// whose per-span cost the small audit magnifies, within 30% (DESIGN §7).
	// The three arms run as off, metrics, trace, trace, metrics, off in
	// every round: ABBA order for each pair.
	{"telemetry-metrics", run{"./internal/core", "BenchmarkTelemetryOverhead", "2000x", 7}, "telemetry=off", "telemetry=metrics", 5},
	{"telemetry-trace", run{"./internal/core", "BenchmarkTelemetryOverhead", "2000x", 7}, "telemetry=off", "telemetry=trace", 30},
	// The exact average at least 10x faster than the pair fill (§9).
	{"average", run{"./internal/core", "BenchmarkAverage$", "5x", 7}, "path=pair", "path=identity", -90},
	// An mmap snapshot within 10% of the heap over a 1M-worker scan and
	// the Table 2 cells (§10).
	{"snapshot", run{".", "BenchmarkSnapshot(Scan|Table2)$", "1x", 7}, "src=mem", "src=mmap", 10},
	// Exposure-parity through the registry within 5% of the direct call
	// (§11), and the cluster layer with no peers within 5% of no cluster
	// layer (§12); each pair of arms runs in ABBA order in every round.
	{"rerank", run{"./internal/rerank", "BenchmarkRerankServe$", "100x", 7}, "exposure-parity/path=direct", "exposure-parity/path=registry", 5},
	{"cluster", run{"./internal/server", "BenchmarkClusterJobs$", "100x", 7}, "/cluster=off", "/cluster=solo", 5},
	// The sliding window within 2x of the unbounded monitor, and a silent
	// three-rule set within 5% of no rules (§13). The rules cost a few ns
	// of a few hundred, so the run pairs many short adjacent arms: ABBA
	// order in each of 100 processes.
	{"drift-window", run{"./internal/drift", "BenchmarkDrift(PerEvent|Alarm)$", "20000x", 100}, "estimator=unbounded", "estimator=window", 100},
	{"drift-alarm", run{"./internal/drift", "BenchmarkDrift(PerEvent|Alarm)$", "20000x", 100}, "alarms=off", "alarms=on", 5},
}

// result is a row's entry in the JSON record.
type result struct {
	gate
	BaselineNs  []float64 `json:"baseline_ns_per_op"`
	CandidateNs []float64 `json:"candidate_ns_per_op"`
	OverheadPct float64   `json:"overhead_pct"`
	Verdict     string    `json:"verdict"` // pass, fail or error
	Error       string    `json:"error,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	os.Exit(gateAll(os.Args[1:]))
}

func gateAll(names []string) int {
	selected, err := selectGates(names)
	if err != nil {
		log.Print(err)
		return 2
	}
	dir, err := os.MkdirTemp("", "benchgate-")
	if err != nil {
		log.Print(err)
		return 1
	}
	defer os.RemoveAll(dir)

	type measurement struct {
		lines []line
		err   error
	}
	bins := map[string]string{} // package → test binary
	runs := map[run]measurement{}
	rec := struct {
		GoVersion string   `json:"go_version"`
		GOOS      string   `json:"goos"`
		GOARCH    string   `json:"goarch"`
		Gates     []result `json:"gates"`
	}{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	var failed []string
	for _, g := range selected {
		m, ok := runs[g.run]
		if !ok {
			log.Printf("%s: %d rounds of %s at %s", g.Package, g.Rounds, g.Bench, g.Benchtime)
			m.lines, m.err = measure(g.run, dir, bins)
			runs[g.run] = m
		}
		res := evaluate(g, m.lines, m.err)
		report(res)
		if res.Verdict != "pass" {
			failed = append(failed, g.Name)
		}
		rec.Gates = append(rec.Gates, res)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		log.Print(err)
		return 1
	}
	if len(failed) > 0 {
		log.Printf("%d of %d gates failed: %s", len(failed), len(selected), strings.Join(failed, ", "))
		return 1
	}
	log.Printf("%d gates passed", len(selected))
	return 0
}

// selectGates returns the named gates in table order, or all of them when
// no name is given.
func selectGates(names []string) ([]gate, error) {
	if len(names) == 0 {
		return gates, nil
	}
	var out []gate
	for _, g := range gates {
		if slices.Contains(names, g.Name) {
			out = append(out, g)
		}
	}
	for _, n := range names {
		if !slices.ContainsFunc(out, func(g gate) bool { return g.Name == n }) {
			return nil, fmt.Errorf("no gate %q in the table of cmd/benchgate/main.go", n)
		}
	}
	return out, nil
}

// measure runs r's benchmark r.Rounds times, one process a round, and
// returns every result line in order. It compiles r's package into dir on
// first use and records the binary in bins.
func measure(r run, dir string, bins map[string]string) ([]line, error) {
	bin, ok := bins[r.Package]
	if !ok {
		bin = filepath.Join(dir, strconv.Itoa(len(bins))+".test")
		cmd := exec.Command("go", "test", "-c", "-o", bin, r.Package)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("compile %s: %w", r.Package, err)
		}
		bins[r.Package] = bin
	}
	var lines []line
	for i := 1; i <= r.Rounds; i++ {
		cmd := exec.Command(bin, "-test.run", "^$", "-test.bench", r.Bench,
			"-test.benchtime", r.Benchtime, "-test.timeout", "30m")
		cmd.Dir, cmd.Stderr = r.Package, os.Stderr
		out, err := cmd.Output()
		if err != nil {
			os.Stderr.Write(out)
			return nil, fmt.Errorf("round %d of %s: %w", i, r.Bench, err)
		}
		lines = append(lines, parse(string(out))...)
	}
	return lines, nil
}

// evaluate gives g's verdict on its run's lines: error when the run
// failed (err) or its arms do not pair.
func evaluate(g gate, lines []line, err error) result {
	res := result{gate: g, Verdict: "error"}
	if err == nil {
		res.BaselineNs, res.CandidateNs, res.OverheadPct, err = compare(lines, g.Baseline, g.Candidate)
	}
	switch {
	case err != nil:
		res.Error = err.Error()
	case res.OverheadPct > g.BoundPct:
		res.Verdict = "fail"
	default:
		res.Verdict = "pass"
	}
	return res
}

// report prints res to stderr: both arms' medians, the overhead and the
// verdict.
func report(res result) {
	say := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, res.Name+": "+format+"\n", args...)
	}
	if res.Error != "" {
		say("ERROR: %s", res.Error)
		return
	}
	say("baseline  (%s): median %.0f ns/op over %d runs", res.Baseline, median(res.BaselineNs), len(res.BaselineNs))
	say("candidate (%s): median %.0f ns/op over %d runs", res.Candidate, median(res.CandidateNs), len(res.CandidateNs))
	say("overhead: %+.2f%% (median of %d per-round ratios, limit %.2f%%)", res.OverheadPct, len(res.BaselineNs), res.BoundPct)
	if res.Verdict == "fail" {
		say("FAIL: overhead %.2f%% exceeds the %.2f%% budget", res.OverheadPct, res.BoundPct)
	} else {
		say("pass")
	}
}

// compare splits lines into candidate runs (names containing candidate,
// tested first so that one substring may contain the other) and baseline
// runs, pairs the k-th baseline run with the k-th candidate run and
// returns the median of the per-pair ratios as an overhead percentage.
// Every round emits the same lines, so arms of unequal size mean a
// substring matches the wrong lines: an error, as is an empty arm.
func compare(lines []line, baseline, candidate string) (base, cand []float64, overheadPct float64, err error) {
	for _, l := range lines {
		switch {
		case strings.Contains(l.name, candidate):
			cand = append(cand, l.nsPerOp)
		case strings.Contains(l.name, baseline):
			base = append(base, l.nsPerOp)
		}
	}
	if len(base) == 0 || len(base) != len(cand) {
		return base, cand, 0, fmt.Errorf("%d %q runs and %d %q runs: want the same number, at least one",
			len(base), baseline, len(cand), candidate)
	}
	ratios := make([]float64, len(base))
	for i, b := range base {
		if b <= 0 {
			return base, cand, 0, fmt.Errorf("baseline run %d is %v ns/op", i+1, b)
		}
		ratios[i] = cand[i] / b
	}
	return base, cand, (median(ratios) - 1) * 100, nil
}

// line is one benchmark result: its name without the -GOMAXPROCS suffix,
// and its ns/op.
type line struct {
	name    string
	nsPerOp float64
}

// parseLine parses one `go test -bench` result line, e.g.
//
//	BenchmarkTelemetryOverhead/telemetry=off-8  12  95102458 ns/op  1024 B/op  17 allocs/op
//
// and reports false for any other line: headers, PASS, ok, logs.
func parseLine(s string) (line, bool) {
	f := strings.Fields(s)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return line{}, false
	}
	if n, err := strconv.ParseInt(f[1], 10, 64); err != nil || n <= 0 {
		return line{}, false
	}
	name := f[0]
	// Sub-benchmark names may contain dashes, so only a trailing
	// all-digit segment is the GOMAXPROCS suffix.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if p, err := strconv.Atoi(name[i+1:]); err == nil && p > 0 {
			name = name[:i]
		}
	}
	for i := 2; i+1 < len(f); i += 2 {
		if f[i+1] == "ns/op" {
			if v, err := strconv.ParseFloat(f[i], 64); err == nil {
				return line{name, v}, true
			}
			break
		}
	}
	return line{}, false
}

// parse returns every result line of out, in order, repeats kept.
func parse(out string) []line {
	var lines []line
	for _, s := range strings.Split(out, "\n") {
		if l, ok := parseLine(s); ok {
			lines = append(lines, l)
		}
	}
	return lines
}

// median returns the median of xs, or 0 for none, leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
