package simulate

import (
	"math"
	"runtime"
	"testing"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/scoring"
)

func TestPaperSchemaShape(t *testing.T) {
	s := PaperSchema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Protected) != 6 {
		t.Fatalf("%d protected attributes, want 6", len(s.Protected))
	}
	if len(s.Observed) != 2 {
		t.Fatalf("%d observed attributes, want 2", len(s.Observed))
	}
	// "each attribute had only a maximum of 5 values"
	for _, a := range s.Protected {
		if c := a.Cardinality(); c < 2 || c > 5 {
			t.Errorf("attribute %s has cardinality %d, want 2..5", a.Name, c)
		}
	}
}

func TestPaperWorkersDeterministic(t *testing.T) {
	a, err := PaperWorkers(100, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PaperWorkers(100, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 100 || b.N() != 100 {
		t.Fatal("wrong sizes")
	}
	for i := 0; i < 100; i++ {
		for attr := range a.Schema().Protected {
			if a.Code(attr, i) != b.Code(attr, i) {
				t.Fatalf("worker %d attr %d differs across identical seeds", i, attr)
			}
		}
		for attr := range a.Schema().Observed {
			if a.Observed(attr, i) != b.Observed(attr, i) {
				t.Fatalf("worker %d observed %d differs", i, attr)
			}
		}
	}
	c, _ := PaperWorkers(100, 43)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Code(0, i) == c.Code(0, i) {
			same++
		}
	}
	if same == 100 {
		t.Fatal("different seeds produced identical genders")
	}
}

func TestPaperWorkersValidation(t *testing.T) {
	if _, err := PaperWorkers(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := PaperWorkers(-5, 1); err == nil {
		t.Error("negative n accepted")
	}
}

func TestPaperWorkersAttributeCoverage(t *testing.T) {
	ds, err := PaperWorkers(2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Every value of every protected attribute should appear in a 2000-
	// worker uniform sample.
	for a, attr := range ds.Schema().Protected {
		seen := map[int]bool{}
		for i := 0; i < ds.N(); i++ {
			seen[ds.Code(a, i)] = true
		}
		if len(seen) != attr.Cardinality() {
			t.Errorf("attribute %s: %d of %d values seen", attr.Name, len(seen), attr.Cardinality())
		}
	}
	// Observed values must respect their ranges.
	for a, attr := range ds.Schema().Observed {
		for i := 0; i < ds.N(); i++ {
			v := ds.Observed(a, i)
			if v < attr.Min || v > attr.Max {
				t.Fatalf("observed %s value %v out of [%v,%v]", attr.Name, v, attr.Min, attr.Max)
			}
		}
	}
}

func TestRandomFunctions(t *testing.T) {
	funcs, err := RandomFunctions()
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) != 5 {
		t.Fatalf("%d functions, want 5", len(funcs))
	}
	ds, _ := PaperWorkers(50, 1)
	for _, f := range funcs {
		for i := 0; i < ds.N(); i++ {
			s := f.Score(ds, i)
			if s < 0 || s > 1 {
				t.Fatalf("%s score %v out of [0,1]", f.Name(), s)
			}
		}
	}
	// f4 must depend only on LanguageTest, f5 only on ApprovalRate.
	f4 := funcs[3].(*scoring.Linear)
	if w := f4.Weights(); w["LanguageTest"] != 1 || w["ApprovalRate"] != 0 {
		t.Errorf("f4 weights = %v", w)
	}
	f5 := funcs[4].(*scoring.Linear)
	if w := f5.Weights(); w["ApprovalRate"] != 1 || w["LanguageTest"] != 0 {
		t.Errorf("f5 weights = %v", w)
	}
}

func TestBiasedFunctionsShapes(t *testing.T) {
	funcs, err := BiasedFunctions(11)
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) != 4 {
		t.Fatalf("%d biased functions, want 4", len(funcs))
	}
	ds, _ := PaperWorkers(500, 11)
	schema := ds.Schema()
	gender := schema.ProtectedIndex("Gender")
	country := schema.ProtectedIndex("Country")

	f6, f7, f8 := funcs[0], funcs[1], funcs[2]
	for i := 0; i < ds.N(); i++ {
		male := schema.Protected[gender].Values[ds.Code(gender, i)] == "Male"
		c := schema.Protected[country].Values[ds.Code(country, i)]

		// f6: males > 0.8, females < 0.2.
		s := f6.Score(ds, i)
		if male && s < 0.8 {
			t.Fatalf("f6 male score %v", s)
		}
		if !male && s >= 0.2 {
			t.Fatalf("f6 female score %v", s)
		}

		// f7 rule table.
		s = f7.Score(ds, i)
		switch {
		case c == "India":
			if s < 0.5 || s >= 0.7 {
				t.Fatalf("f7 Indian score %v", s)
			}
		case male && c == "America", !male && c == "Other":
			if s < 0.8 {
				t.Fatalf("f7 high-rule score %v (male=%v country=%s)", s, male, c)
			}
		default:
			if s >= 0.2 {
				t.Fatalf("f7 low-rule score %v (male=%v country=%s)", s, male, c)
			}
		}

		// f8: only females are rule-scored.
		s = f8.Score(ds, i)
		if !male {
			switch c {
			case "America":
				if s < 0.8 {
					t.Fatalf("f8 female American score %v", s)
				}
			case "India":
				if s < 0.5 || s >= 0.8 {
					t.Fatalf("f8 female Indian score %v", s)
				}
			default:
				if s >= 0.2 {
					t.Fatalf("f8 female other score %v", s)
				}
			}
		}
	}
}

func TestRunExperimentSmall(t *testing.T) {
	funcs, _ := RandomFunctions()
	res, err := RunParallel(Spec{
		Name:    "mini",
		Workers: 120,
		Seed:    3,
		Funcs:   funcs[:2],
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(AllAlgorithms) {
		t.Fatalf("%d rows, want %d", len(res.Rows), len(AllAlgorithms))
	}
	for _, row := range res.Rows {
		if len(row.Cells) != 2 {
			t.Fatalf("row %s has %d cells", row.Algorithm, len(row.Cells))
		}
		for _, c := range row.Cells {
			if c.AvgDistance < 0 || c.AvgDistance > 1 {
				t.Errorf("%s/%s avg = %v", row.Algorithm, c.Function, c.AvgDistance)
			}
			if c.Partitions < 1 {
				t.Errorf("%s/%s partitions = %d", row.Algorithm, c.Function, c.Partitions)
			}
		}
	}
}

func TestRunExperimentDeterministic(t *testing.T) {
	funcs, _ := RandomFunctions()
	spec := Spec{Name: "det", Workers: 100, Seed: 5, Funcs: funcs[:1]}
	a, err := RunParallel(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunParallel(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i].Cells[0].AvgDistance != b.Rows[i].Cells[0].AvgDistance {
			t.Fatalf("row %s not deterministic", a.Rows[i].Algorithm)
		}
	}
}

func TestRunParallelMatchesSequential(t *testing.T) {
	funcs, _ := RandomFunctions()
	spec := Spec{Name: "par", Workers: 150, Seed: 9, Funcs: funcs[:3]}
	seq, err := RunParallel(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunParallel(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Rows) != len(seq.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(par.Rows), len(seq.Rows))
	}
	for i := range seq.Rows {
		if par.Rows[i].Algorithm != seq.Rows[i].Algorithm {
			t.Fatalf("row %d algorithm differs", i)
		}
		for j := range seq.Rows[i].Cells {
			s, p := seq.Rows[i].Cells[j], par.Rows[i].Cells[j]
			if s.Function != p.Function || s.AvgDistance != p.AvgDistance || s.Partitions != p.Partitions {
				t.Fatalf("cell %d/%d differs: %+v vs %+v", i, j, s, p)
			}
		}
	}
}

func TestRunParallelErrors(t *testing.T) {
	if _, err := RunParallel(Spec{Name: "x", Workers: 10}, 4); err == nil {
		t.Error("no functions accepted")
	}
	funcs, _ := RandomFunctions()
	if _, err := RunParallel(Spec{Name: "x", Workers: 10, Funcs: funcs,
		Algorithms: []AlgorithmID{"bogus"}}, 4); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// A failed cell must not strand the goroutines of a parallel run: every
// one of them has exited once RunParallel returns the error.
func TestRunParallelFailureLeaksNoGoroutines(t *testing.T) {
	funcs, _ := RandomFunctions()
	spec := Spec{Name: "x", Workers: 10, Funcs: funcs, Algorithms: []AlgorithmID{"bogus"}}
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := RunParallel(spec, 4); err == nil {
			t.Fatal("unknown algorithm accepted")
		}
	}
	// Poll briefly: a goroutine that has signalled the WaitGroup may not
	// have finished tearing down yet.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before five failing runs, %d after",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunSeedsAggregates(t *testing.T) {
	funcs, _ := RandomFunctions()
	spec := Spec{Name: "agg", Workers: 100, Funcs: funcs[:2],
		Algorithms: []AlgorithmID{AlgoBalanced, AlgoUnbalanced}}
	res, err := RunSeeds(spec, []uint64{1, 2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || len(res.Seeds) != 3 {
		t.Fatalf("rows=%d seeds=%d", len(res.Rows), len(res.Seeds))
	}
	for _, row := range res.Rows {
		for _, c := range row.Cells {
			if c.Runs != 3 {
				t.Fatalf("cell runs = %d", c.Runs)
			}
			if c.Min > c.Mean || c.Mean > c.Max {
				t.Fatalf("mean %v outside [%v,%v]", c.Mean, c.Min, c.Max)
			}
			if c.StdDev < 0 {
				t.Fatalf("negative stddev")
			}
			if c.Mean <= 0 || c.Mean >= 1 {
				t.Fatalf("implausible mean %v", c.Mean)
			}
		}
	}
	// Different seeds should actually vary the measurement.
	c := res.Rows[0].Cells[0]
	if c.Min == c.Max {
		t.Fatal("no variation across seeds (suspicious)")
	}
}

func TestRunSeedsValidation(t *testing.T) {
	funcs, _ := RandomFunctions()
	spec := Spec{Name: "x", Workers: 50, Funcs: funcs[:1]}
	if _, err := RunSeeds(spec, nil, 1); err == nil {
		t.Error("no seeds accepted")
	}
	if _, err := RunSeeds(Spec{Name: "x", Workers: 50}, []uint64{1}, 1); err == nil {
		t.Error("no functions accepted")
	}
}

func TestRunExperimentValidation(t *testing.T) {
	if _, err := RunParallel(Spec{Name: "x", Workers: 10}, 1); err == nil {
		t.Error("no functions accepted")
	}
	funcs, _ := RandomFunctions()
	if _, err := RunParallel(Spec{Name: "x", Workers: 0, Funcs: funcs}, 1); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := RunParallel(Spec{Name: "x", Workers: 10, Funcs: funcs,
		Algorithms: []AlgorithmID{"nope"}}, 1); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestTableSpecs(t *testing.T) {
	t1, err := Table1Spec(1)
	if err != nil || t1.Workers != SmallPopulation || len(t1.Funcs) != 5 {
		t.Fatalf("Table1Spec = %+v, %v", t1, err)
	}
	t2, err := Table2Spec(1)
	if err != nil || t2.Workers != LargePopulation || len(t2.Funcs) != 5 {
		t.Fatalf("Table2Spec = %+v, %v", t2, err)
	}
	t3, err := Table3Spec(1)
	if err != nil || t3.Workers != LargePopulation || len(t3.Funcs) != 4 {
		t.Fatalf("Table3Spec = %+v, %v", t3, err)
	}
}

// TestTable1ShapeAtReducedScale verifies the paper's key qualitative
// finding at a CI-friendly scale: the single-attribute functions f4 and f5
// exhibit the highest unfairness among f1–f5 for the greedy algorithms.
func TestTable1ShapeAtReducedScale(t *testing.T) {
	funcs, _ := RandomFunctions()
	res, err := RunParallel(Spec{Name: "t1-small", Workers: 500, Seed: 17, Funcs: funcs,
		Algorithms: []AlgorithmID{AlgoBalanced, AlgoUnbalanced}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		byName := map[string]float64{}
		for _, c := range row.Cells {
			byName[c.Function] = c.AvgDistance
		}
		mixedMax := math.Max(byName["f1"], math.Max(byName["f2"], byName["f3"]))
		if byName["f4"] <= mixedMax && byName["f5"] <= mixedMax {
			t.Errorf("%s: single-attribute functions not highest: %v", row.Algorithm, byName)
		}
	}
}

// TestBiasedBeatsRandomUnfairness verifies the paper's headline qualitative
// claim: designed-bias functions show much higher unfairness than random
// ones under the balanced algorithm.
func TestBiasedBeatsRandomUnfairness(t *testing.T) {
	rf, _ := RandomFunctions()
	bf, err := BiasedFunctions(19)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Name: "mix", Workers: 500, Seed: 19,
		Funcs:      append(rf[:1], bf[0]),
		Algorithms: []AlgorithmID{AlgoBalanced}}
	res, err := RunParallel(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	cells := res.Rows[0].Cells
	random, biased := cells[0].AvgDistance, cells[1].AvgDistance
	if biased < 2*random {
		t.Fatalf("f6 unfairness %v not clearly above random f1 %v", biased, random)
	}
	if biased < 0.7 {
		t.Fatalf("f6 unfairness %v, want ~0.8", biased)
	}
}

var _ = core.Config{} // keep import for documentation examples
