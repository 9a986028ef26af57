package core

import (
	"context"
	"math"
	"sort"
	"strings"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/partition"
	"fairrank/internal/rng"
	"fairrank/internal/scoring"
)

// figure1Dataset reconstructs the shape of the paper's Figure 1 toy
// example: 10 workers where the optimum partitioning splits on Gender first
// and then only the Male branch on Language, yielding
// {Male∧English, Male∧Indian, Male∧Other, Female}.
func figure1Dataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	b := dataset.NewBuilder(testSchema())
	// Males: score determined by language.
	addWorker(b, "Male", "English", 0.95)
	addWorker(b, "Male", "English", 0.92)
	addWorker(b, "Male", "Indian", 0.05)
	addWorker(b, "Male", "Indian", 0.08)
	addWorker(b, "Male", "Other", 0.35)
	addWorker(b, "Male", "Other", 0.35)
	// Females: homogeneous scores regardless of language.
	addWorker(b, "Female", "English", 0.65)
	addWorker(b, "Female", "English", 0.65)
	addWorker(b, "Female", "Indian", 0.65)
	addWorker(b, "Female", "Other", 0.65)
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func labelsOf(pt *partition.Partitioning, s *dataset.Schema) []string {
	out := make([]string, len(pt.Parts))
	for i, p := range pt.Parts {
		out[i] = p.Label(s)
	}
	sort.Strings(out)
	return out
}

// heuristics names the searches that need no budget.
var heuristics = []string{"balanced", "unbalanced", "r-balanced", "r-unbalanced", "all-attributes"}

// mustRun runs spec through Run, failing t on an error.
func mustRun(t testing.TB, spec Spec) *Result {
	t.Helper()
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("%s: %v", spec.Algorithm, err)
	}
	return res
}

func TestFigure1UnbalancedFindsOptimum(t *testing.T) {
	ds := figure1Dataset(t)
	e := mustEval(t, ds, Config{Bins: 10})
	res := mustRun(t, Spec{Algorithm: "unbalanced", Evaluator: e})
	want := []string{
		"Gender=Female",
		"Gender=Male ∧ Language=English",
		"Gender=Male ∧ Language=Indian",
		"Gender=Male ∧ Language=Other",
	}
	got := labelsOf(res.Partitioning, ds.Schema())
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("unbalanced partitioning = %v, want %v", got, want)
	}
	if math.Abs(res.Unfairness-0.5) > 1e-9 {
		t.Fatalf("unfairness = %v, want 0.5", res.Unfairness)
	}
	if err := res.Partitioning.Validate(ds); err != nil {
		t.Fatalf("invalid partitioning: %v", err)
	}
}

func TestFigure1ExhaustiveAgrees(t *testing.T) {
	ds := figure1Dataset(t)
	e := mustEval(t, ds, Config{Bins: 10})
	ex := mustRun(t, Spec{Algorithm: "exhaustive", Evaluator: e, Budget: 10000})
	if math.Abs(ex.Unfairness-0.5) > 1e-9 {
		t.Fatalf("exhaustive optimum = %v, want 0.5", ex.Unfairness)
	}
	// The heuristic must match the exact optimum on this instance.
	ub := mustRun(t, Spec{Algorithm: "unbalanced", Evaluator: e})
	if math.Abs(ub.Unfairness-ex.Unfairness) > 1e-9 {
		t.Fatalf("unbalanced %v != exhaustive %v", ub.Unfairness, ex.Unfairness)
	}
}

func TestFigure1BalancedStopsAtGender(t *testing.T) {
	// balanced splits every partition on the same attribute, so it cannot
	// express the Figure 1 optimum; it should split Gender (avg 0.4) and
	// stop, because also splitting Language lowers the average to 0.36.
	ds := figure1Dataset(t)
	e := mustEval(t, ds, Config{Bins: 10})
	res := mustRun(t, Spec{Algorithm: "balanced", Evaluator: e})
	got := labelsOf(res.Partitioning, ds.Schema())
	want := []string{"Gender=Female", "Gender=Male"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("balanced partitioning = %v, want %v", got, want)
	}
	if math.Abs(res.Unfairness-0.4) > 1e-9 {
		t.Fatalf("balanced unfairness = %v, want 0.4", res.Unfairness)
	}
	// Trace: first step accepted (Gender), second rejected (Language).
	if len(res.Steps) != 2 || !res.Steps[0].Accepted || res.Steps[1].Accepted {
		t.Fatalf("trace = %+v", res.Steps)
	}
}

// genderBiased builds a dataset scored by the paper's f6: males > 0.8,
// females < 0.2, independent of every other attribute.
func genderBiased(t *testing.T, n int, seed uint64) (*dataset.Dataset, scoring.Func) {
	t.Helper()
	r := rng.New(seed)
	b := dataset.NewBuilder(testSchema())
	for i := 0; i < n; i++ {
		addWorker(b, rng.Pick(r, []string{"Male", "Female"}),
			rng.Pick(r, []string{"English", "Indian", "Other"}), 0)
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f6, err := scoring.NewRuleFunc("f6", seed, []scoring.Rule{
		{When: scoring.AttrIs("Gender", "Male"), Lo: 0.8, Hi: 1.0},
		{When: scoring.AttrIs("Gender", "Female"), Lo: 0.0, Hi: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds, f6
}

func TestBalancedRecoversDesignedBias(t *testing.T) {
	// Table 3 / qualitative result: "for f6, balanced partitions the
	// workers on only gender" with average EMD ≈ 0.8.
	ds, f6 := genderBiased(t, 500, 21)
	e, err := NewEvaluator(ds, f6, Config{Bins: 10})
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, Spec{Algorithm: "balanced", Evaluator: e})
	used := res.Partitioning.AttributesUsed()
	if len(used) != 1 || used[0] != 0 {
		t.Fatalf("balanced used attributes %v, want only Gender", used)
	}
	if res.Unfairness < 0.75 || res.Unfairness > 0.85 {
		t.Fatalf("f6 unfairness = %v, want ~0.8", res.Unfairness)
	}
}

func TestBalancedBeatsRandomOnBias(t *testing.T) {
	// On a designed-bias function the greedy choice must do at least as
	// well as the random baselines and all-attributes (Table 3 shape).
	ds, f6 := genderBiased(t, 400, 23)
	e, err := NewEvaluator(ds, f6, Config{Bins: 10})
	if err != nil {
		t.Fatal(err)
	}
	bal := mustRun(t, Spec{Algorithm: "balanced", Evaluator: e})
	all := mustRun(t, Spec{Algorithm: "all-attributes", Evaluator: e})
	rb := mustRun(t, Spec{Algorithm: "r-balanced", Evaluator: e, Seed: 98})
	if bal.Unfairness < all.Unfairness-1e-9 {
		t.Errorf("balanced %v < all-attributes %v", bal.Unfairness, all.Unfairness)
	}
	if bal.Unfairness < rb.Unfairness-1e-9 {
		t.Errorf("balanced %v < r-balanced %v", bal.Unfairness, rb.Unfairness)
	}
}

func TestAllAttributesFullSplit(t *testing.T) {
	ds := randomDataset(t, 200, 31)
	e := mustEval(t, ds, Config{})
	res := mustRun(t, Spec{Algorithm: "all-attributes", Evaluator: e})
	if err := res.Partitioning.Validate(ds); err != nil {
		t.Fatal(err)
	}
	// Every partition must be constrained on both attributes.
	for _, p := range res.Partitioning.Parts {
		if len(p.Constraints) != 2 {
			t.Fatalf("partition %v not fully split", p.Constraints)
		}
	}
	if got := res.Partitioning.Size(); got > 6 {
		t.Fatalf("%d partitions from a 2x3 attribute cross", got)
	}
}

func TestAllResultsValid(t *testing.T) {
	ds := randomDataset(t, 300, 37)
	e := mustEval(t, ds, Config{})
	names := map[string]bool{}
	for _, alg := range heuristics {
		res := mustRun(t, Spec{Algorithm: alg, Evaluator: e, Seed: 5})
		if err := res.Partitioning.Validate(ds); err != nil {
			t.Errorf("%s: invalid partitioning: %v", res.Algorithm, err)
		}
		if res.Unfairness < 0 {
			t.Errorf("%s: negative unfairness", res.Algorithm)
		}
		if res.Elapsed < 0 {
			t.Errorf("%s: negative elapsed", res.Algorithm)
		}
		names[res.Algorithm] = true
	}
	for _, want := range heuristics {
		if !names[want] {
			t.Errorf("missing algorithm %q", want)
		}
	}
}

func TestUnfairnessMatchesReportedResult(t *testing.T) {
	// Result.Unfairness must equal re-evaluating the partitioning.
	ds := randomDataset(t, 250, 41)
	e := mustEval(t, ds, Config{})
	for _, alg := range []string{"balanced", "unbalanced", "all-attributes"} {
		res := mustRun(t, Spec{Algorithm: alg, Evaluator: e})
		if got := e.Unfairness(res.Partitioning); math.Abs(got-res.Unfairness) > 1e-12 {
			t.Errorf("%s: reported %v, re-evaluated %v", res.Algorithm, res.Unfairness, got)
		}
	}
}

func TestEmptyAttributeSet(t *testing.T) {
	ds := randomDataset(t, 50, 43)
	e := mustEval(t, ds, Config{})
	for _, res := range []*Result{
		mustRun(t, Spec{Algorithm: "balanced", Evaluator: e, Attrs: []int{}}),
		mustRun(t, Spec{Algorithm: "unbalanced", Evaluator: e, Attrs: []int{}}),
		mustRun(t, Spec{Algorithm: "all-attributes", Evaluator: e, Attrs: []int{}}),
	} {
		if res.Partitioning.Size() != 1 || res.Unfairness != 0 {
			t.Errorf("%s with no attrs: size=%d unfairness=%v",
				res.Algorithm, res.Partitioning.Size(), res.Unfairness)
		}
		if err := res.Partitioning.Validate(ds); err != nil {
			t.Errorf("%s: %v", res.Algorithm, err)
		}
	}
}

func TestSingleAttribute(t *testing.T) {
	ds := randomDataset(t, 100, 47)
	e := mustEval(t, ds, Config{})
	res := mustRun(t, Spec{Algorithm: "balanced", Evaluator: e, Attrs: []int{0}})
	if got := len(res.Partitioning.AttributesUsed()); got != 1 {
		t.Fatalf("used %d attributes, want 1", got)
	}
	res2 := mustRun(t, Spec{Algorithm: "unbalanced", Evaluator: e, Attrs: []int{0}})
	if err := res2.Partitioning.Validate(ds); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	ds := randomDataset(t, 200, 53)
	e1 := mustEval(t, ds, Config{})
	e2 := mustEval(t, ds, Config{})
	a := mustRun(t, Spec{Algorithm: "balanced", Evaluator: e1})
	b := mustRun(t, Spec{Algorithm: "balanced", Evaluator: e2})
	if a.Unfairness != b.Unfairness || a.Partitioning.Size() != b.Partitioning.Size() {
		t.Fatal("balanced is not deterministic")
	}
	ra := mustRun(t, Spec{Algorithm: "r-balanced", Evaluator: e1, Seed: 6})
	rb := mustRun(t, Spec{Algorithm: "r-balanced", Evaluator: e2, Seed: 6})
	if ra.Unfairness != rb.Unfairness {
		t.Fatal("r-balanced with equal seeds differs")
	}
}

func TestExhaustiveBudget(t *testing.T) {
	ds := randomDataset(t, 50, 59)
	e := mustEval(t, ds, Config{})
	if _, err := Run(context.Background(), Spec{Algorithm: "exhaustive", Evaluator: e, Budget: 2}); err != partition.ErrBudgetExceeded {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestExhaustiveDominatesHeuristics(t *testing.T) {
	// On instances small enough to enumerate, the exact optimum is an
	// upper bound for every heuristic.
	for seed := uint64(0); seed < 5; seed++ {
		ds := randomDataset(t, 60, 100+seed)
		e := mustEval(t, ds, Config{})
		ex := mustRun(t, Spec{Algorithm: "exhaustive", Evaluator: e, Budget: 100000})
		for _, alg := range heuristics {
			res := mustRun(t, Spec{Algorithm: alg, Evaluator: e, Seed: seed})
			if res.Unfairness > ex.Unfairness+1e-9 {
				t.Errorf("seed %d: %s (%v) beat exhaustive (%v)",
					seed, res.Algorithm, res.Unfairness, ex.Unfairness)
			}
		}
	}
}

func TestTraceSteps(t *testing.T) {
	ds := randomDataset(t, 150, 61)
	e := mustEval(t, ds, Config{})
	res := mustRun(t, Spec{Algorithm: "balanced", Evaluator: e})
	if len(res.Steps) == 0 {
		t.Fatal("no trace steps")
	}
	if !res.Steps[0].Accepted {
		t.Fatal("first split must always be accepted")
	}
	for _, s := range res.Steps {
		if s.Attribute < 0 || s.Attribute >= len(ds.Schema().Protected) {
			t.Errorf("step attribute %d out of range", s.Attribute)
		}
	}
}
