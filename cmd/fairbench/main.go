// Command fairbench regenerates the paper's evaluation artifacts: Tables
// 1–3 (average pairwise EMD and runtime per algorithm and scoring
// function), the Figure 1 toy example, and the exhaustive-search hardness
// demonstration.
//
// Regenerate every table at full paper scale:
//
//	fairbench -table all
//
// Quick pass at reduced scale, with CSV output:
//
//	fairbench -table 1 -workers 200 -csv table1.csv
//
// Figure 1 and the hardness demo:
//
//	fairbench -figure1
//	fairbench -exhaustive-demo
//
// The serving-time re-ranker fairness/utility trade-off table:
//
//	fairbench -rerank -workers 500
//
// The population-shift drift scenario (proxy-free randomized vs
// det-greedy under a continuous audit):
//
//	fairbench -drift
//	fairbench -drift -drift-shift 0.5   # the shut-out regime
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/partition"
	"fairrank/internal/report"
	"fairrank/internal/scoring"
	"fairrank/internal/simulate"
	"fairrank/internal/telemetry"
)

// benchTelemetry carries the optional -telemetry-json state through the
// subcommands: a traced context for span capture and a registry the audit
// evaluators record into. A nil *benchTelemetry disables both.
type benchTelemetry struct {
	ctx context.Context
	reg *telemetry.Registry
}

func (bt *benchTelemetry) context() context.Context {
	if bt == nil || bt.ctx == nil {
		return context.Background()
	}
	return bt.ctx
}

func (bt *benchTelemetry) registry() *telemetry.Registry {
	if bt == nil {
		return nil
	}
	return bt.reg
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fairbench: ")
	var (
		table   = flag.String("table", "", "table to regenerate: 1, 2, 3 or all")
		workers = flag.Int("workers", 0, "override the population size (0 = paper scale)")
		snap    = flag.String("snapshot", "", "audit this columnar snapshot (mmap, zero-copy) instead of generating workers")
		seed    = flag.Uint64("seed", 42, "experiment seed")
		bins    = flag.Int("bins", 10, "histogram bins")
		csvOut  = flag.String("csv", "", "also write results as CSV to this file")
		mdOut   = flag.String("md", "", "also write results as Markdown to this file")
		jsonOut = flag.String("json", "", "also write results as JSON to this file")
		par     = flag.Int("parallel", 1, "run (function, algorithm) cells on this many goroutines (timings become contention-affected)")
		nSeeds  = flag.Int("seeds", 1, "repeat each table over this many seeds and report mean ± stddev")
		figure1 = flag.Bool("figure1", false, "reproduce the Figure 1 toy example")
		sweep   = flag.Bool("sweep", false, "sweep α over [0,1] and report unfairness per mixing weight")
		points  = flag.Int("points", 11, "number of α values for -sweep")
		exDemo  = flag.Bool("exhaustive-demo", false, "demonstrate the exhaustive-search budget blow-up")
		rerankF = flag.Bool("rerank", false, "evaluate every serving-time re-ranker's fairness/utility trade-off")
		rerankK = flag.Int("rerank-k", 125, "page size for -rerank")
		driftF  = flag.Bool("drift", false, "run the population-shift drift scenario: proxy-free randomized vs det-greedy under a continuous audit")
		driftSh = flag.Float64("drift-shift", 0.25, "total minority score depression injected by -drift")
		driftSp = flag.Float64("drift-spread", 0.5, "randomized re-ranker jitter width for -drift")
		driftSt = flag.Int("drift-steps", 60, "serving steps for -drift")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile at exit to this file")
		telJSON = flag.String("telemetry-json", "", "write engine metrics and span trees as JSON to this file (\"-\" for stdout)")
	)
	flag.Parse()
	if !*figure1 && !*exDemo && !*sweep && !*rerankF && !*driftF && *table == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}
	var (
		bt     *benchTelemetry
		tracer *telemetry.Tracer
	)
	if *telJSON != "" {
		ctx, tr := telemetry.WithTracer(context.Background(), "fairbench")
		tracer = tr
		bt = &benchTelemetry{ctx: ctx, reg: telemetry.NewRegistry()}
	}
	var snapDS *dataset.Dataset
	if *snap != "" {
		var err error
		if snapDS, err = dataset.OpenSnapshot(*snap); err != nil {
			log.Fatal(err)
		}
		defer snapDS.Close()
	}
	if *sweep {
		n := *workers
		if n == 0 {
			n = simulate.SmallPopulation
		}
		if err := runSweep(os.Stdout, snapDS, n, *seed, *bins, *points, bt); err != nil {
			log.Fatal(err)
		}
	}
	if *rerankF {
		n := *workers
		if n == 0 {
			n = simulate.SmallPopulation
		}
		if err := runRerank(os.Stdout, snapDS, n, *seed, *rerankK, bt); err != nil {
			log.Fatal(err)
		}
	}
	if *driftF {
		n := *workers
		if n == 0 {
			n = simulate.SmallPopulation
		}
		if err := runDriftScenario(os.Stdout, n, *driftSt, *seed, *driftSh, *driftSp); err != nil {
			log.Fatal(err)
		}
	}
	if *figure1 {
		if err := runFigure1(os.Stdout, *bins, bt); err != nil {
			log.Fatal(err)
		}
	}
	if *exDemo {
		if err := runExhaustiveDemo(os.Stdout, *seed, *bins, bt); err != nil {
			log.Fatal(err)
		}
	}
	if *table != "" {
		if err := runTables(os.Stdout, snapDS, *table, *workers, *seed, *bins, *csvOut, *mdOut, *jsonOut, *par, *nSeeds, bt); err != nil {
			log.Fatal(err)
		}
	}
	if *telJSON != "" {
		if err := telemetry.WriteReportFile(*telJSON, tracer, bt.reg); err != nil {
			log.Fatal(err)
		}
	}
}

func runTables(w io.Writer, ds *dataset.Dataset, table string, workers int, seed uint64, bins int, csvOut, mdOut, jsonOut string, parallel, nSeeds int, bt *benchTelemetry) error {
	var specs []simulate.Spec
	add := func(s simulate.Spec, err error) error {
		if err != nil {
			return err
		}
		if workers > 0 {
			s.Workers = workers
		}
		s.Dataset = ds // nil = generate s.Workers synthetic workers
		s.Config = core.Config{Bins: bins, Metrics: bt.registry()}
		specs = append(specs, s)
		return nil
	}
	switch table {
	case "1":
		if err := add(simulate.Table1Spec(seed)); err != nil {
			return err
		}
	case "2":
		if err := add(simulate.Table2Spec(seed)); err != nil {
			return err
		}
	case "3":
		if err := add(simulate.Table3Spec(seed)); err != nil {
			return err
		}
	case "all":
		if err := add(simulate.Table1Spec(seed)); err != nil {
			return err
		}
		if err := add(simulate.Table2Spec(seed)); err != nil {
			return err
		}
		if err := add(simulate.Table3Spec(seed)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown table %q (want 1, 2, 3 or all)", table)
	}

	open := func(path string) (*os.File, error) {
		if path == "" {
			return nil, nil
		}
		return os.Create(path)
	}
	csvFile, err := open(csvOut)
	if err != nil {
		return err
	}
	if csvFile != nil {
		defer csvFile.Close()
	}
	mdFile, err := open(mdOut)
	if err != nil {
		return err
	}
	if mdFile != nil {
		defer mdFile.Close()
	}
	jsonFile, err := open(jsonOut)
	if err != nil {
		return err
	}
	if jsonFile != nil {
		defer jsonFile.Close()
	}
	for i, spec := range specs {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if nSeeds > 1 {
			seeds := make([]uint64, nSeeds)
			for k := range seeds {
				seeds[k] = spec.Seed + uint64(k)
			}
			agg, err := simulate.RunSeeds(spec, seeds, parallel)
			if err != nil {
				return err
			}
			if err := report.AggregateTable(w, agg); err != nil {
				return err
			}
			continue
		}
		res, err := simulate.RunParallel(spec, parallel)
		if err != nil {
			return err
		}
		if err := report.Table(w, res); err != nil {
			return err
		}
		if csvFile != nil {
			if err := report.CSV(csvFile, res); err != nil {
				return err
			}
		}
		if mdFile != nil {
			if err := report.Markdown(mdFile, res); err != nil {
				return err
			}
		}
		if jsonFile != nil {
			if err := report.JSON(jsonFile, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// runSweep measures unfairness as a function of the mixing weight α in
// f = α·LanguageTest + (1-α)·ApprovalRate. The paper's f1–f5 are five
// samples of this curve; the sweep shows its full shape — highest at the
// single-attribute extremes (α = 0 and 1), lowest for balanced mixes,
// which is the paper's central Table-1/2 finding as a curve.
func runSweep(w io.Writer, ds *dataset.Dataset, workers int, seed uint64, bins, points int, bt *benchTelemetry) error {
	if points < 2 {
		return fmt.Errorf("sweep needs at least 2 points")
	}
	if ds == nil {
		var err error
		if ds, err = simulate.PaperWorkers(workers, seed); err != nil {
			return err
		}
	} else {
		workers = ds.N()
	}
	fmt.Fprintf(w, "unfairness vs α (%d workers, balanced algorithm)\n", workers)
	fmt.Fprintf(w, "%8s  %10s  %s\n", "α", "unfairness", "")
	maxU := 0.0
	values := make([]float64, points)
	for i := 0; i < points; i++ {
		alpha := float64(i) / float64(points-1)
		f, err := scoring.NewLinear(fmt.Sprintf("f(α=%.2f)", alpha), map[string]float64{
			"LanguageTest": alpha,
			"ApprovalRate": 1 - alpha,
		})
		if err != nil {
			return err
		}
		e, err := core.NewEvaluator(ds, f, core.Config{Bins: bins, Metrics: bt.registry()})
		if err != nil {
			return err
		}
		res, err := core.Search(bt.context(), core.Spec{Evaluator: e})
		if err != nil {
			return err
		}
		values[i] = res.Unfairness
		if values[i] > maxU {
			maxU = values[i]
		}
	}
	for i, u := range values {
		alpha := float64(i) / float64(points-1)
		bar := int(u / maxU * 40)
		fmt.Fprintf(w, "%8.2f  %10.4f  %s\n", alpha, u, strings.Repeat("#", bar))
	}
	return nil
}

func runFigure1(w io.Writer, bins int, bt *benchTelemetry) error {
	ds, err := simulate.Figure1Workers()
	if err != nil {
		return err
	}
	e, err := core.NewEvaluator(ds, simulate.Figure1Func(), core.Config{Bins: bins, Metrics: bt.registry()})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 1 toy example: 10 workers, attributes Gender and Language")
	fmt.Fprintln(w)
	res, err := core.Run(bt.context(), core.Spec{Algorithm: "unbalanced", Evaluator: e})
	if err != nil {
		return err
	}
	if err := report.Tree(w, e, res); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := report.Partitioning(w, e, res.Partitioning); err != nil {
		return err
	}
	ex, err := core.Run(bt.context(), core.Spec{Algorithm: "exhaustive", Evaluator: e, Budget: 10000})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "exhaustive optimum: %.3f — unbalanced %s it (%.3f)\n",
		ex.Unfairness, verdict(res.Unfairness, ex.Unfairness), res.Unfairness)
	return nil
}

func verdict(heuristic, exact float64) string {
	if heuristic >= exact-1e-9 {
		return "matches"
	}
	return "is below"
}

func runExhaustiveDemo(w io.Writer, seed uint64, bins int, bt *benchTelemetry) error {
	ds, err := simulate.PaperWorkers(100, seed)
	if err != nil {
		return err
	}
	cards := make([]int, len(ds.Schema().Protected))
	for i, a := range ds.Schema().Protected {
		cards[i] = a.Cardinality()
	}
	fmt.Fprintf(w, "partitioning-space size for the paper's 6 attributes: %g\n",
		partition.CountTrees(cards))
	funcs, err := simulate.RandomFunctions()
	if err != nil {
		return err
	}
	e, err := core.NewEvaluator(ds, funcs[0], core.Config{Bins: bins, Metrics: bt.registry()})
	if err != nil {
		return err
	}
	if _, err := core.Run(bt.context(), core.Spec{
		Algorithm: "exhaustive", Evaluator: e, Budget: 1_000_000,
	}); err != nil {
		fmt.Fprintf(w, "exhaustive over all 6 attributes: %v (as in the paper, which\n"+
			"reports the brute-force solver failed to terminate in two days)\n", err)
	} else {
		fmt.Fprintln(w, "exhaustive unexpectedly finished — budget too generous?")
	}
	res, err := core.Run(bt.context(), core.Spec{
		Algorithm: "exhaustive", Evaluator: e, Attrs: []int{0, 1}, Budget: 1_000_000,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "exhaustive restricted to 2 attributes: optimum %.3f in %s\n",
		res.Unfairness, res.Elapsed)
	return nil
}
