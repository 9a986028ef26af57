// Command benchjson turns `go test -bench -benchmem` output into a
// machine-readable benchmark artifact (BENCH_4.json). It reads the
// benchmark text from stdin, then runs one instrumented reference audit
// so the artifact also carries the engine's telemetry counters — EMD
// evaluations, cache hits and misses, pair-cache occupancy — alongside
// the ns/op numbers. See EXPERIMENTS.md for the format.
//
//	go test -run '^$' -bench . -benchmem ./internal/core/ | benchjson -out BENCH_4.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"

	"fairrank/internal/benchfmt"
	"fairrank/internal/core"
	"fairrank/internal/scoring"
	"fairrank/internal/simulate"
	"fairrank/internal/telemetry"
)

// artifact is the BENCH_4.json schema.
type artifact struct {
	GoVersion  string             `json:"go_version"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	Benchmarks []benchfmt.Result  `json:"benchmarks"`
	Audit      auditInfo          `json:"audit"`
	Telemetry  telemetry.Snapshot `json:"telemetry"`
}

// auditInfo identifies the reference audit whose telemetry counters are
// embedded, so the counts are reproducible.
type auditInfo struct {
	Workers    int     `json:"workers"`
	Seed       uint64  `json:"seed"`
	Algorithm  string  `json:"algorithm"`
	Bins       int     `json:"bins"`
	Unfairness float64 `json:"unfairness"`
	ElapsedNS  int64   `json:"elapsed_ns"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	var (
		out     = flag.String("out", "BENCH_4.json", "output file (\"-\" for stdout)")
		workers = flag.Int("workers", 400, "population size of the reference audit")
		seed    = flag.Uint64("seed", 42, "reference-audit seed")
		bins    = flag.Int("bins", 10, "histogram bins for the reference audit")
		algo    = flag.String("algo", "balanced", "reference-audit algorithm")
	)
	flag.Parse()
	a, err := build(os.Stdin, *workers, *seed, *bins, *algo)
	if err != nil {
		log.Fatal(err)
	}
	raw, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	raw = append(raw, '\n')
	if *out == "-" {
		os.Stdout.Write(raw)
		return
	}
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s: %d benchmark lines, %d telemetry counters",
		*out, len(a.Benchmarks), len(a.Telemetry.Counters))
}

func build(in io.Reader, workers int, seed uint64, bins int, algo string) (*artifact, error) {
	results, err := benchfmt.Parse(in)
	if err != nil {
		return nil, err
	}
	audit, snap, err := referenceAudit(workers, seed, bins, algo)
	if err != nil {
		return nil, err
	}
	return &artifact{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Benchmarks: results,
		Audit:      audit,
		Telemetry:  snap,
	}, nil
}

// referenceAudit runs one fully instrumented audit and returns its
// headline result plus the complete telemetry snapshot.
func referenceAudit(workers int, seed uint64, bins int, algo string) (auditInfo, telemetry.Snapshot, error) {
	fail := func(err error) (auditInfo, telemetry.Snapshot, error) {
		return auditInfo{}, telemetry.Snapshot{}, fmt.Errorf("reference audit: %w", err)
	}
	ds, err := simulate.PaperWorkers(workers, seed)
	if err != nil {
		return fail(err)
	}
	f, err := scoring.NewLinear("f(α=0.5)", map[string]float64{
		"LanguageTest": 0.5,
		"ApprovalRate": 0.5,
	})
	if err != nil {
		return fail(err)
	}
	reg := telemetry.NewRegistry()
	e, err := core.NewEvaluator(ds, f, core.Config{Bins: bins, Metrics: reg})
	if err != nil {
		return fail(err)
	}
	res, err := core.Run(context.Background(), core.Spec{Algorithm: algo, Evaluator: e, Seed: seed})
	if err != nil {
		return fail(err)
	}
	return auditInfo{
		Workers:    workers,
		Seed:       seed,
		Algorithm:  res.Algorithm,
		Bins:       bins,
		Unfairness: res.Unfairness,
		ElapsedNS:  int64(res.Elapsed),
	}, reg.Snapshot(), nil
}
