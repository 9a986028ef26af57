package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/emd"
	"fairrank/internal/partition"
	"fairrank/internal/rng"
	"fairrank/internal/scoring"
	"fairrank/internal/telemetry"
)

func testSchema() *dataset.Schema {
	return &dataset.Schema{
		Protected: []dataset.Attribute{
			dataset.Cat("Gender", "Male", "Female"),
			dataset.Cat("Language", "English", "Indian", "Other"),
		},
		Observed: []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
}

// scoreFunc reads the "Score" observed attribute directly.
var scoreFunc = scoring.ScoreFunc{
	FuncName: "identity",
	Fn: func(ds *dataset.Dataset, i int) float64 {
		return ds.Observed(0, i)
	},
}

func addWorker(b *dataset.Builder, gender, lang string, score float64) {
	b.Add("w", map[string]any{"Gender": gender, "Language": lang},
		map[string]any{"Score": score})
}

func randomDataset(t testing.TB, n int, seed uint64) *dataset.Dataset {
	t.Helper()
	r := rng.New(seed)
	b := dataset.NewBuilder(testSchema())
	for i := 0; i < n; i++ {
		addWorker(b, rng.Pick(r, []string{"Male", "Female"}),
			rng.Pick(r, []string{"English", "Indian", "Other"}), r.Float64())
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func mustEval(t *testing.T, ds *dataset.Dataset, cfg Config) *Evaluator {
	t.Helper()
	e, err := NewEvaluator(ds, scoreFunc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEvaluatorValidation(t *testing.T) {
	if _, err := NewEvaluator(nil, scoreFunc, Config{}); err == nil {
		t.Error("nil dataset accepted")
	}
	ds := randomDataset(t, 10, 1)
	if _, err := NewEvaluator(ds, nil, Config{}); err == nil {
		t.Error("nil function accepted")
	}
}

// TestNewEvaluatorRejectsNonFiniteScores: a NaN or ±Inf score is an
// error naming the lowest-index such worker, in binned and Exact mode
// alike: at worker 0, on each side of a scoring-block boundary, and at the
// last worker, each with a second bad worker after it.
func TestNewEvaluatorRejectsNonFiniteScores(t *testing.T) {
	n := 2*scoreBlock + 3
	b := dataset.NewBuilder(testSchema())
	for i := 0; i < n; i++ {
		b.Add(fmt.Sprintf("worker-%d", i), map[string]any{"Gender": "Male", "Language": "English"},
			map[string]any{"Score": 0.5})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range []int{0, 4, scoreBlock - 1, scoreBlock, 2*scoreBlock - 1, n - 1} {
			f := scoring.ScoreFunc{FuncName: "bad", Fn: func(ds *dataset.Dataset, i int) float64 {
				if i == at || i == at+1 || i == n-1 {
					return bad
				}
				return ds.Observed(0, i)
			}}
			want := fmt.Sprintf(`"worker-%d"`, at)
			for _, exact := range []bool{false, true} {
				if _, err := NewEvaluator(ds, f, Config{Exact: exact}); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("score %v at %d, exact=%v: error %v, want one naming %s", bad, at, exact, err, want)
				}
			}
		}
	}
}

// A binned evaluator keeps one int32 bin per worker and scores through one
// block-sized buffer: well under the 8 bytes per worker a float64 score
// column alone would take.
func TestNewEvaluatorAllocatesUnderEightBytesPerWorker(t *testing.T) {
	const n = 100_000
	ds := twoScoreDataset(t, n)
	f, err := scoring.NewLinear("f", map[string]float64{"LanguageTest": 0.3, "ApprovalRate": 0.7})
	if err != nil {
		t.Fatal(err)
	}
	perWorker := math.Inf(1)
	for round := 0; round < 3; round++ { // the least of three, against a concurrent test's allocations
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := NewEvaluator(ds, f, Config{Bins: 10}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perWorker = min(perWorker, float64(after.TotalAlloc-before.TotalAlloc)/n)
	}
	if perWorker >= 8 {
		t.Fatalf("NewEvaluator allocated %.2f bytes per worker, want under 8", perWorker)
	}
}

// A binned evaluator builds its float score column on first use; callers
// racing for it all get one column with scoring.Scores' bits. Run under
// -race.
func TestScoresLazyConcurrent(t *testing.T) {
	ds := randomDataset(t, 500, 9)
	want := scoring.Scores(ds, scoreFunc)
	e := mustEval(t, ds, Config{Bins: 10})
	got := make([][]float64, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 1 {
				e.Histogram(partition.Root(ds))
			}
			got[g] = e.Scores()
		}()
	}
	wg.Wait()
	for g, col := range got {
		if &col[0] != &got[0][0] {
			t.Fatalf("caller %d got a second column", g)
		}
	}
	for i, s := range got[0] {
		if math.Float64bits(s) != math.Float64bits(want[i]) {
			t.Fatalf("worker %d: lazy score %v, scoring.Scores %v", i, s, want[i])
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	ds := randomDataset(t, 10, 1)
	e := mustEval(t, ds, Config{})
	cfg := e.Config()
	if cfg.Bins != 10 || cfg.Parallelism < 1 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestEvaluatorAccessors(t *testing.T) {
	ds := randomDataset(t, 10, 2)
	e := mustEval(t, ds, Config{})
	if e.Dataset() != ds || e.Func().Name() != "identity" {
		t.Error("accessors wrong")
	}
	if len(e.Scores()) != 10 {
		t.Error("scores not precomputed")
	}
	if got := e.Attrs(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("Attrs = %v", got)
	}
}

func TestHistogramMatchesScores(t *testing.T) {
	b := dataset.NewBuilder(testSchema())
	addWorker(b, "Male", "English", 0.05)
	addWorker(b, "Male", "English", 0.95)
	ds, _ := b.Build()
	e := mustEval(t, ds, Config{Bins: 10})
	h := e.Histogram(partition.Root(ds))
	if h.Count(0) != 1 || h.Count(9) != 1 || h.Total() != 2 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestPairDistanceKnown(t *testing.T) {
	b := dataset.NewBuilder(testSchema())
	addWorker(b, "Male", "English", 0.05)   // bin 0
	addWorker(b, "Female", "English", 0.95) // bin 9
	ds, _ := b.Build()
	e := mustEval(t, ds, Config{Bins: 10})
	parts := partition.Split(ds, partition.Root(ds), 0)
	if len(parts) != 2 {
		t.Fatal("expected two gender partitions")
	}
	d := e.PairDistance(parts[0], parts[1])
	if math.Abs(d-0.9) > 1e-12 {
		t.Fatalf("pair distance = %v, want 0.9", d)
	}
	// The distance is symmetric, bit for bit.
	if back := e.PairDistance(parts[1], parts[0]); math.Float64bits(back) != math.Float64bits(d) {
		t.Fatalf("pair distance %v one way, %v the other", d, back)
	}
}

func TestAvgPairwiseDegenerate(t *testing.T) {
	ds := randomDataset(t, 10, 3)
	e := mustEval(t, ds, Config{})
	if got := e.AvgPairwise(nil); got != 0 {
		t.Errorf("AvgPairwise(nil) = %v", got)
	}
	if got := e.AvgPairwise([]*partition.Partition{partition.Root(ds)}); got != 0 {
		t.Errorf("single partition = %v", got)
	}
	if got := e.Unfairness(nil); got != 0 {
		t.Errorf("Unfairness(nil) = %v", got)
	}
}

func TestAvgPairwiseSerialMatchesParallel(t *testing.T) {
	// Force a partitioning with enough parts that the pair path's fill (here
	// under the KS metric) actually fans out across its row pieces, using a
	// schema with one high-cardinality attribute.
	schema := &dataset.Schema{
		Protected: []dataset.Attribute{dataset.Num("Cell", 0, 1, 100)},
		Observed:  []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
	r := rng.New(11)
	b := dataset.NewBuilder(schema)
	for i := 0; i < 2000; i++ {
		b.Add("w", map[string]any{"Cell": r.Float64()}, map[string]any{"Score": r.Float64()})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := scoring.ScoreFunc{FuncName: "s", Fn: func(ds *dataset.Dataset, i int) float64 { return ds.Observed(0, i) }}

	serial, _ := NewEvaluator(ds, f, Config{Parallelism: 1, Metric: emd.MetricKS})
	par, _ := NewEvaluator(ds, f, Config{Parallelism: 4, Metric: emd.MetricKS})
	parts := partition.Split(ds, partition.Root(ds), 0)
	if len(parts) < 64 {
		t.Fatalf("only %d parts; need a large partitioning", len(parts))
	}
	a := serial.AvgPairwise(parts)
	b2 := par.AvgPairwise(parts)
	if a != b2 {
		t.Fatalf("serial %v != parallel %v (must be bit-identical)", a, b2)
	}
}

// TestAvgPairwiseCountsEveryPair: a parallel AvgPairwise on the pair path
// (here the KS metric) counts every distance it computes in the
// EMD-evaluation counter, and a repeat computes them all again: the public
// averages keep no distance between calls.
func TestAvgPairwiseCountsEveryPair(t *testing.T) {
	schema := &dataset.Schema{
		Protected: []dataset.Attribute{dataset.Num("Cell", 0, 1, 100)},
		Observed:  []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
	r := rng.New(5)
	b := dataset.NewBuilder(schema)
	for i := 0; i < 2000; i++ {
		b.Add("w", map[string]any{"Cell": r.Float64()}, map[string]any{"Score": r.Float64()})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f := scoring.ScoreFunc{FuncName: "s", Fn: func(ds *dataset.Dataset, i int) float64 { return ds.Observed(0, i) }}
	reg := telemetry.NewRegistry()
	e, err := NewEvaluator(ds, f, Config{Parallelism: 4, Metric: emd.MetricKS, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	parts := partition.Split(ds, partition.Root(ds), 0)
	k := len(parts)
	if k < 64 {
		t.Fatalf("only %d parts; need a large partitioning", k)
	}
	want := int64(k * (k - 1) / 2)
	for round := int64(1); round <= 2; round++ {
		_ = e.AvgPairwise(parts)
		if got := reg.Snapshot().Counters[MetricEMDEvaluations]; got != round*want {
			t.Errorf("after %d averages: %d distances counted, want %d", round, got, round*want)
		}
	}
}

func TestMetricSelection(t *testing.T) {
	b := dataset.NewBuilder(testSchema())
	addWorker(b, "Male", "English", 0.05)
	addWorker(b, "Female", "English", 0.95)
	ds, _ := b.Build()
	parts := partition.Split(ds, partition.Root(ds), 0)

	metrics := map[emd.Metric]float64{
		emd.MetricEMD:       0.9,
		emd.MetricL1:        2,
		emd.MetricTV:        1,
		emd.MetricChiSquare: 2,
		emd.MetricJS:        1,
		emd.MetricKS:        1,
		emd.MetricHellinger: 1,
	}
	for m, want := range metrics {
		e := mustEval(t, ds, Config{Bins: 10, Metric: m})
		got := e.PairDistance(parts[0], parts[1])
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("metric %v distance = %v, want %v", m, got, want)
		}
	}
}

func TestGroundIndexUnit(t *testing.T) {
	b := dataset.NewBuilder(testSchema())
	addWorker(b, "Male", "English", 0.05)
	addWorker(b, "Female", "English", 0.95)
	ds, _ := b.Build()
	parts := partition.Split(ds, partition.Root(ds), 0)
	e := mustEval(t, ds, Config{Bins: 10, Ground: emd.GroundIndex})
	if d := e.PairDistance(parts[0], parts[1]); math.Abs(d-1) > 1e-12 {
		t.Fatalf("index-ground distance = %v, want 1", d)
	}
}
