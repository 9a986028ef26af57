// Command fairaudit runs a fairness audit on a worker population: it
// searches for the most unfair partitioning of the workers under a scoring
// function and reports the partitioning, its unfairness, and the algorithm's
// decision trace.
//
// Audit a generated population with the paper's f1 (α = 0.5):
//
//	fairaudit -gen 500 -seed 42 -algo balanced -alpha 0.5
//
// Audit a CSV in the paper's schema with explicit weights and a figure:
//
//	fairaudit -data workers.csv -weights LanguageTest=1 -algo unbalanced -figure
//
// Audit a columnar snapshot memory-mapped, without loading it into RAM:
//
//	fairaudit -snapshot workers.snap -algo balanced
//
// Follow the audit with a continuous-audit readout, streaming the rows
// through a sliding-window and/or exponential-decay estimator:
//
//	fairaudit -gen 500 -window 100 -half-life 250
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/emd"
	"fairrank/internal/explain"
	"fairrank/internal/report"
	"fairrank/internal/scoring"
	"fairrank/internal/simulate"
	"fairrank/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fairaudit: ")
	var (
		dataFile = flag.String("data", "", "CSV dataset in the paper's schema (mutually exclusive with -gen and -snapshot)")
		snapFile = flag.String("snapshot", "", "columnar snapshot file (genworkers -format snapshot); audited via mmap, zero-copy")
		gen      = flag.Int("gen", 0, "generate this many synthetic workers instead of loading -data")
		seed     = flag.Uint64("seed", 42, "seed for generation and random baselines")
		algo     = flag.String("algo", "balanced", "algorithm: "+strings.Join(core.Algorithms(), "|"))
		alpha    = flag.Float64("alpha", 0.5, "weight of LanguageTest in f = α·LanguageTest + (1-α)·ApprovalRate")
		weights  = flag.String("weights", "", "explicit weights, e.g. \"LanguageTest=0.7,ApprovalRate=0.3\" (overrides -alpha)")
		bins     = flag.Int("bins", 10, "histogram bins")
		metric   = flag.String("metric", "emd", "distance metric: emd|l1|tv|chi2|js|ks|hellinger")
		attrs    = flag.String("attrs", "", "comma-separated protected attributes to audit (default: all)")
		figure   = flag.Bool("figure", false, "render per-partition score histograms")
		tree     = flag.Bool("tree", false, "render the splitting-decision trace")
		sig      = flag.Int("significance", 0, "permutation-test rounds for a p-value (0 = skip)")
		expl     = flag.Bool("explain", false, "print per-attribute importance (solo and leave-one-out)")
		prot     = flag.String("protected", "", "infer schema from -data: comma-separated protected columns")
		obs      = flag.String("observed", "", "infer schema from -data: comma-separated observed columns")
		idCol    = flag.String("id", "", "infer schema from -data: worker-id column (default row numbers)")
		describe = flag.Bool("describe", false, "print a population profile before auditing")
		window   = flag.Int("window", 0, "also stream the rows through a sliding-window continuous audit of this capacity (internal/drift)")
		halfLife = flag.Float64("half-life", 0, "also stream the rows through an exponential-decay continuous audit with this half-life in events")
		timeout  = flag.Duration("timeout", 0, "abort the audit after this long (0 = no deadline)")
		telJSON  = flag.String("telemetry-json", "", "write engine metrics and the audit's span tree as JSON to this file (\"-\" for stdout)")
	)
	flag.Parse()
	if err := run(os.Stdout, *dataFile, *snapFile, *gen, *seed, *algo, *alpha, *weights, *bins, *metric, *attrs, *figure, *tree, *sig, *expl, *prot, *obs, *idCol, *describe, *timeout, *telJSON); err != nil {
		log.Fatal(err)
	}
	if *window > 0 || *halfLife > 0 {
		fmt.Println()
		if err := runContinuousCmd(os.Stdout, *dataFile, *snapFile, *gen, *seed, *alpha, *weights, *bins, *attrs, *window, *halfLife); err != nil {
			log.Fatal(err)
		}
	}
}

func run(w io.Writer, dataFile, snapFile string, gen int, seed uint64, algo string, alpha float64,
	weightSpec string, bins int, metricName string, attrSpec string, figure, tree bool, sigRounds int, explainAttrs bool,
	protCols, obsCols, idCol string, describe bool, timeout time.Duration, telJSON string) error {

	ds, err := loadDataset(dataFile, snapFile, gen, seed, protCols, obsCols, idCol)
	if err != nil {
		return err
	}
	// No-op for generated/CSV data; unmaps a -snapshot view.
	defer ds.Close()
	if describe {
		if err := dataset.WriteProfile(w, ds); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	f, err := buildFunc(alpha, weightSpec)
	if err != nil {
		return err
	}
	metric, err := emd.ParseMetric(metricName)
	if err != nil {
		return err
	}
	cfg := core.Config{Bins: bins, Metric: metric}
	var (
		reg    *telemetry.Registry
		tracer *telemetry.Tracer
	)
	if telJSON != "" {
		reg = telemetry.NewRegistry()
		cfg.Metrics = reg
	}
	e, err := core.NewEvaluator(ds, f, cfg)
	if err != nil {
		return err
	}
	attrIdx, err := parseAttrs(ds, attrSpec)
	if err != nil {
		return err
	}

	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if telJSON != "" {
		ctx, tracer = telemetry.WithTracer(ctx, "fairaudit")
	}
	res, err := core.Run(ctx, core.Spec{
		Algorithm: algo,
		Evaluator: e,
		Attrs:     attrIdx,
		Seed:      seed,
	})
	if err != nil {
		return err
	}
	if telJSON != "" {
		if err := telemetry.WriteReportFile(telJSON, tracer, reg); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "dataset: %d workers; function: %s; metric: %s, %d bins\n",
		ds.N(), f.Name(), metric, bins)
	fmt.Fprintf(w, "%s found unfairness %.4f over %d partitions in %s\n\n",
		res.Algorithm, res.Unfairness, res.Partitioning.Size(), res.Elapsed)
	fmt.Fprintln(w, res.Partitioning.Describe(ds.Schema()))
	if tree {
		fmt.Fprintln(w)
		if err := report.Tree(w, e, res); err != nil {
			return err
		}
	}
	if figure {
		fmt.Fprintln(w)
		if err := report.Partitioning(w, e, res.Partitioning); err != nil {
			return err
		}
	}
	if explainAttrs {
		fmt.Fprintln(w, "\nattribute importance:")
		if err := explain.Report(w, explain.Attributes(e)); err != nil {
			return err
		}
	}
	if sigRounds > 0 {
		p, obs, err := core.Significance(ctx, e, res.Partitioning, sigRounds, seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\npermutation test (%d rounds): observed %.4f, p = %.4f\n",
			sigRounds, obs, p)
		if p <= 0.05 {
			fmt.Fprintln(w, "the disparity is unlikely to be sampling noise (p <= 0.05)")
		} else {
			fmt.Fprintln(w, "the disparity is compatible with sampling noise (p > 0.05)")
		}
	}
	return nil
}

func loadDataset(dataFile, snapFile string, gen int, seed uint64, protCols, obsCols, idCol string) (*dataset.Dataset, error) {
	sources := 0
	for _, set := range []bool{dataFile != "", snapFile != "", gen > 0} {
		if set {
			sources++
		}
	}
	switch {
	case sources > 1:
		return nil, fmt.Errorf("-data, -snapshot and -gen are mutually exclusive")
	case snapFile != "":
		// The columns stay on disk; the audit reads them through the
		// mapping, so RAM cost is independent of population size.
		return dataset.OpenSnapshot(snapFile)
	case dataFile != "":
		f, err := os.Open(dataFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if protCols != "" || obsCols != "" {
			// Arbitrary CSV: infer the schema from the named columns.
			return dataset.InferCSV(f, dataset.InferOptions{
				Protected: splitList(protCols),
				Observed:  splitList(obsCols),
				IDColumn:  idCol,
			})
		}
		return dataset.ReadCSV(f, simulate.PaperSchema())
	case gen > 0:
		return simulate.PaperWorkers(gen, seed)
	default:
		return simulate.PaperWorkers(simulate.SmallPopulation, seed)
	}
}

func buildFunc(alpha float64, weightSpec string) (scoring.Func, error) {
	if weightSpec == "" {
		if alpha < 0 || alpha > 1 {
			return nil, fmt.Errorf("alpha %v outside [0,1]", alpha)
		}
		return scoring.NewLinear(fmt.Sprintf("f(α=%.2g)", alpha), map[string]float64{
			"LanguageTest": alpha,
			"ApprovalRate": 1 - alpha,
		})
	}
	w := map[string]float64{}
	for _, pair := range strings.Split(weightSpec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("bad weight %q (want name=value)", pair)
		}
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("bad weight %q: %v", pair, err)
		}
		w[name] = x
	}
	return scoring.NewLinear("f", w)
}

// splitList splits a comma-separated flag value, trimming whitespace and
// dropping empty entries.
func splitList(spec string) []string {
	var out []string
	for _, s := range strings.Split(spec, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

func parseAttrs(ds *dataset.Dataset, spec string) ([]int, error) {
	if spec == "" {
		return nil, nil
	}
	var out []int
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		i := ds.Schema().ProtectedIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("%q is not a protected attribute", name)
		}
		out = append(out, i)
	}
	return out, nil
}
