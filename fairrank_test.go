package fairrank_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"fairrank"
)

func workers(t *testing.T, n int, seed uint64) *fairrank.Dataset {
	t.Helper()
	ds, err := fairrank.GenerateWorkers(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func linear(t *testing.T, name string, alpha float64) fairrank.ScoringFunc {
	t.Helper()
	f, err := fairrank.NewLinearFunc(name, map[string]float64{
		"LanguageTest": alpha,
		"ApprovalRate": 1 - alpha,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func genderBiased(t *testing.T, seed uint64) fairrank.ScoringFunc {
	t.Helper()
	f, err := fairrank.NewRuleFunc("f6", seed, []fairrank.Rule{
		{When: fairrank.AttrIs("Gender", "Male"), Lo: 0.8, Hi: 1.0},
		{When: fairrank.AttrIs("Gender", "Female"), Lo: 0.0, Hi: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAuditorAllAlgorithms(t *testing.T) {
	ds := workers(t, 300, 1)
	f := linear(t, "f1", 0.5)
	a := fairrank.NewAuditor()
	results, err := a.AuditAll(ds, f)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(fairrank.Algorithms) {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		if r.Algorithm != string(fairrank.Algorithms[i]) {
			t.Errorf("result %d is %q, want %q", i, r.Algorithm, fairrank.Algorithms[i])
		}
		if err := r.Partitioning.Validate(ds); err != nil {
			t.Errorf("%s: %v", r.Algorithm, err)
		}
	}
}

func TestAuditorUnknownAlgorithm(t *testing.T) {
	ds := workers(t, 50, 2)
	a := fairrank.NewAuditor()
	if _, err := a.Audit(ds, linear(t, "f", 0.5), "nope"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestAuditAttrsSubset(t *testing.T) {
	ds := workers(t, 300, 3)
	a := fairrank.NewAuditor()
	res, err := a.AuditAttrs(ds, genderBiased(t, 3), fairrank.AlgoBalanced, []string{"Gender", "Country"})
	if err != nil {
		t.Fatal(err)
	}
	for _, attr := range res.Partitioning.AttributesUsed() {
		name := ds.Schema().Protected[attr].Name
		if name != "Gender" && name != "Country" {
			t.Errorf("audit used out-of-scope attribute %s", name)
		}
	}
	if _, err := a.AuditAttrs(ds, genderBiased(t, 3), fairrank.AlgoBalanced, []string{"Nope"}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestAuditFindsDesignedBias(t *testing.T) {
	ds := workers(t, 500, 4)
	a := fairrank.NewAuditor()
	res, err := a.Audit(ds, genderBiased(t, 4), fairrank.AlgoBalanced)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfairness < 0.75 {
		t.Fatalf("unfairness = %v, want ~0.8", res.Unfairness)
	}
	used := res.Partitioning.AttributesUsed()
	if len(used) != 1 || ds.Schema().Protected[used[0]].Name != "Gender" {
		t.Fatalf("expected a gender-only partitioning, used %v", used)
	}
}

func TestAuditorOptions(t *testing.T) {
	ds := workers(t, 200, 5)
	f := linear(t, "f", 0.5)
	a1 := fairrank.NewAuditor(fairrank.WithSeed(7))
	a2 := fairrank.NewAuditor(fairrank.WithSeed(7))
	r1, err := a1.Audit(ds, f, fairrank.AlgoRBalanced)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a2.Audit(ds, f, fairrank.AlgoRBalanced)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Unfairness != r2.Unfairness {
		t.Error("equal seeds disagreed")
	}

	cfgA := fairrank.NewAuditor(fairrank.WithConfig(fairrank.Config{Bins: 5}))
	cfgB := fairrank.NewAuditor(fairrank.WithConfig(fairrank.Config{Bins: 40}))
	ra, _ := cfgA.Audit(ds, f, fairrank.AlgoAllAttributes)
	rb, _ := cfgB.Audit(ds, f, fairrank.AlgoAllAttributes)
	if ra.Unfairness == rb.Unfairness {
		t.Error("bin count had no effect (suspicious)")
	}
}

func TestExhaustiveBudgetOption(t *testing.T) {
	ds := workers(t, 50, 6)
	a := fairrank.NewAuditor(fairrank.WithExhaustiveBudget(2))
	if _, err := a.Audit(ds, linear(t, "f", 0.5), fairrank.AlgoExhaustive); err == nil {
		t.Error("tiny budget did not fail on 6 attributes")
	}
	// With a subset of attributes and a real budget it succeeds.
	big := fairrank.NewAuditor(fairrank.WithExhaustiveBudget(100000))
	res, err := big.AuditAttrs(ds, linear(t, "f", 0.5), fairrank.AlgoExhaustive, []string{"Gender", "Country"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitioning == nil {
		t.Fatal("no partitioning from exhaustive")
	}
}

func TestGroupByAndUnfairness(t *testing.T) {
	ds := workers(t, 400, 7)
	f := genderBiased(t, 7)
	pt, err := fairrank.GroupBy(ds, "Gender")
	if err != nil {
		t.Fatal(err)
	}
	if pt.Size() != 2 {
		t.Fatalf("gender grouping has %d parts", pt.Size())
	}
	a := fairrank.NewAuditor()
	u, err := a.Unfairness(ds, f, pt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-0.8) > 0.05 {
		t.Fatalf("gender unfairness = %v, want ~0.8", u)
	}
	if _, err := fairrank.GroupBy(ds); err == nil {
		t.Error("GroupBy with no attributes accepted")
	}
	if _, err := fairrank.GroupBy(ds, "Nope"); err == nil {
		t.Error("GroupBy with unknown attribute accepted")
	}
}

func TestRepairRoundTrip(t *testing.T) {
	ds := workers(t, 400, 8)
	f := genderBiased(t, 8)
	a := fairrank.NewAuditor()
	res, err := a.Audit(ds, f, fairrank.AlgoBalanced)
	if err != nil {
		t.Fatal(err)
	}
	repaired, err := a.RepairedScores(ds, f, res.Partitioning, 1)
	if err != nil {
		t.Fatal(err)
	}
	after, err := a.ScoreUnfairness(ds, repaired, res.Partitioning)
	if err != nil {
		t.Fatal(err)
	}
	if after > 0.05 {
		t.Fatalf("unfairness after repair = %v (before %v)", after, res.Unfairness)
	}
}

// scoreColumn returns a dataset, a score function's own score column over
// it, and the dataset's Gender × Language partitioning.
func scoreColumn(t *testing.T) (*fairrank.Dataset, fairrank.ScoringFunc, []float64, *fairrank.Partitioning) {
	t.Helper()
	ds := workers(t, 400, 8)
	f := genderBiased(t, 8)
	pt, err := fairrank.GroupBy(ds, "Gender", "Language")
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, ds.N())
	for i := range scores {
		scores[i] = f.Score(ds, i)
	}
	return ds, f, scores, pt
}

// TestScoreUnfairnessHonoursConfig: ScoreUnfairness over a function's own
// score column is Unfairness of that function, bit for bit, under every
// auditor configuration — bins, ground distance, metric and Exact mode.
func TestScoreUnfairnessHonoursConfig(t *testing.T) {
	ds, f, scores, pt := scoreColumn(t)
	for _, cfg := range []fairrank.Config{
		{}, {Bins: 20}, {Ground: fairrank.GroundIndex}, {Metric: fairrank.MetricKS}, {Metric: fairrank.MetricTV}, {Exact: true},
	} {
		a := fairrank.NewAuditor(fairrank.WithConfig(cfg))
		want, err := a.Unfairness(ds, f, pt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.ScoreUnfairness(ds, scores, pt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%+v: ScoreUnfairness %v, Unfairness %v", cfg, got, want)
		}
	}
}

// TestScoreUnfairnessValidation: ScoreUnfairness refuses a column of the
// wrong length, a partitioning that is not one of the dataset, and a nil
// dataset.
func TestScoreUnfairnessValidation(t *testing.T) {
	ds, _, scores, pt := scoreColumn(t)
	a := fairrank.NewAuditor()
	if _, err := a.ScoreUnfairness(ds, scores[1:], pt); err == nil {
		t.Error("a column one score short accepted")
	}
	bad := &fairrank.Partitioning{Parts: []*fairrank.Partition{{Indices: []int{0, ds.N()}}}}
	if _, err := a.ScoreUnfairness(ds, scores, bad); err == nil {
		t.Error("an out-of-range worker accepted")
	}
	if _, err := a.ScoreUnfairness(nil, scores, pt); err == nil {
		t.Error("a nil dataset accepted")
	}
}

func TestCustomSchemaEndToEnd(t *testing.T) {
	schema := &fairrank.Schema{
		Protected: []fairrank.Attribute{
			fairrank.Cat("Team", "Red", "Blue"),
			fairrank.Num("Age", 18, 66, 4),
		},
		Observed: []fairrank.Attribute{fairrank.Num("Skill", 0, 10, 1)},
	}
	b := fairrank.NewBuilder(schema)
	for i := 0; i < 40; i++ {
		team := "Red"
		skill := float64(i%10) + 0.5
		if i%2 == 1 {
			team = "Blue"
			skill = 9.5 // blue team systematically boosted
		}
		b.Add(fmt.Sprintf("w%d", i),
			map[string]any{"Team": team, "Age": 20 + i%40},
			map[string]any{"Skill": skill})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	f, err := fairrank.NewLinearFunc("skill", map[string]float64{"Skill": 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fairrank.NewAuditor().Audit(ds, f, fairrank.AlgoUnbalanced)
	if err != nil {
		t.Fatal(err)
	}
	used := res.Partitioning.AttributesUsed()
	foundTeam := false
	for _, u := range used {
		if ds.Schema().Protected[u].Name == "Team" {
			foundTeam = true
		}
	}
	if !foundTeam {
		t.Fatalf("audit missed the Team bias; used %v, unfairness %v", used, res.Unfairness)
	}
}

func TestFuncOfAdapter(t *testing.T) {
	ds := workers(t, 50, 9)
	f := fairrank.FuncOf("half", func(*fairrank.Dataset, int) float64 { return 0.5 })
	res, err := fairrank.NewAuditor().Audit(ds, f, fairrank.AlgoAllAttributes)
	if err != nil {
		t.Fatal(err)
	}
	// A constant function is perfectly fair.
	if res.Unfairness != 0 {
		t.Fatalf("constant function unfairness = %v", res.Unfairness)
	}
}

// TestExactAuditRejectsNaNScore: a FuncOf that scores one worker NaN
// once hung an Exact-mode audit for good. In either mode the audit now
// fails at once, naming the worker.
func TestExactAuditRejectsNaNScore(t *testing.T) {
	ds := workers(t, 200, 11)
	f := fairrank.FuncOf("nan-one", func(_ *fairrank.Dataset, i int) float64 {
		if i == 7 {
			return math.NaN()
		}
		return float64(i%10) / 10
	})
	for _, exact := range []bool{true, false} {
		done := make(chan error, 1)
		go func() {
			_, err := fairrank.NewAuditor(fairrank.WithConfig(fairrank.Config{Exact: exact})).Audit(ds, f, fairrank.AlgoBalanced)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", ds.ID(7))) {
				t.Fatalf("exact=%v: audit error %v, want one naming worker %q", exact, err, ds.ID(7))
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("exact=%v: audit with a NaN score has not returned after 10s", exact)
		}
	}
}

func TestCSVRoundTripPublicAPI(t *testing.T) {
	ds := workers(t, 30, 10)
	var buf strings.Builder
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := fairrank.ReadCSV(strings.NewReader(buf.String()), fairrank.PaperSchema())
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 30 {
		t.Fatalf("round trip N = %d", back.N())
	}
}

func TestBeamPublicAPI(t *testing.T) {
	ds := workers(t, 200, 11)
	a := fairrank.NewAuditor()
	f := linear(t, "f", 0.5)
	bal, err := a.Audit(ds, f, fairrank.AlgoBalanced)
	if err != nil {
		t.Fatal(err)
	}
	beam, err := a.Beam(ds, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	if beam.Unfairness < bal.Unfairness-1e-9 {
		t.Fatalf("beam %v below balanced %v", beam.Unfairness, bal.Unfairness)
	}
	if _, err := a.Beam(ds, f, 0); err == nil {
		t.Error("width 0 accepted")
	}
}

func TestSignificancePublicAPI(t *testing.T) {
	ds := workers(t, 300, 12)
	a := fairrank.NewAuditor()
	f := genderBiased(t, 12)
	res, err := a.Audit(ds, f, fairrank.AlgoBalanced)
	if err != nil {
		t.Fatal(err)
	}
	p, obs, err := a.Significance(ds, f, res.Partitioning, 100)
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.05 || obs < 0.7 {
		t.Fatalf("p=%v obs=%v for designed bias", p, obs)
	}
}

func TestMinPartitionSizePublicAPI(t *testing.T) {
	ds := workers(t, 300, 13)
	a := fairrank.NewAuditor(fairrank.WithConfig(fairrank.Config{MinPartitionSize: 20}))
	res, err := a.Audit(ds, genderBiased(t, 13), fairrank.AlgoUnbalanced)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Partitioning.Parts {
		if p.Size() < 20 {
			t.Fatalf("partition of size %d despite MinPartitionSize=20", p.Size())
		}
	}
	// The exact solver honours the guard too: on Gender × Country under
	// f1 its unguarded optimum has a part of fewer than 40 workers.
	f1 := linear(t, "f1", 0.5)
	a = fairrank.NewAuditor(fairrank.WithConfig(fairrank.Config{MinPartitionSize: 40}))
	res, err = a.AuditAttrs(ds, f1, fairrank.AlgoExhaustive, []string{"Gender", "Country"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Partitioning.Parts {
		if p.Size() < 40 {
			t.Fatalf("exhaustive partition %s of size %d despite MinPartitionSize=40", p.Label(ds.Schema()), p.Size())
		}
	}
}

func TestMonitorPublicAPI(t *testing.T) {
	m, err := fairrank.NewMonitor(fairrank.PaperSchema(), []string{"Gender"}, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	attrs := map[string]any{
		"Gender": "Male", "Country": "America", "YearOfBirth": 1980,
		"Language": "English", "Ethnicity": "White", "YearsExperience": 5,
	}
	fattrs := map[string]any{}
	for k, v := range attrs {
		fattrs[k] = v
	}
	fattrs["Gender"] = "Female"
	for i := 0; i < 50; i++ {
		if err := m.Join(fmt.Sprintf("m%d", i), attrs, 0.9); err != nil {
			t.Fatal(err)
		}
		if err := m.Join(fmt.Sprintf("f%d", i), fattrs, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	if u, breached := m.Alert(); !breached || u < 0.7 {
		t.Fatalf("u=%v breached=%v", u, breached)
	}
}

func TestRerankPublicAPI(t *testing.T) {
	ds := workers(t, 300, 15)
	f := genderBiased(t, 15)
	ranked := fairrank.RankWorkers(ds, f, 0)
	out, err := fairrank.RerankExposureParity(ds, "Gender", ranked, fairrank.RerankOptions{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	gender := ds.Schema().ProtectedIndex("Gender")
	before, _ := fairrank.GroupExposure(ds, gender, ranked[:50])
	after, _ := fairrank.GroupExposure(ds, gender, out[:50])
	if fairrank.ExposureDisparity(after) >= fairrank.ExposureDisparity(before) {
		t.Fatalf("disparity did not improve: %v -> %v",
			fairrank.ExposureDisparity(before), fairrank.ExposureDisparity(after))
	}
	if _, err := fairrank.RerankExposureParity(ds, "Nope", ranked, fairrank.RerankOptions{}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestQueryPublicAPI(t *testing.T) {
	ds := workers(t, 200, 16)
	q, err := fairrank.CompileQuery("Gender = 'Female' AND LanguageTest >= 50", ds.Schema())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := q.Select(ds)
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() == 0 || sub.N() == ds.N() {
		t.Fatalf("degenerate selection: %d", sub.N())
	}
	// Audit just the selected sub-population.
	res, err := fairrank.NewAuditor().Audit(sub, linear(t, "f", 0.5), fairrank.AlgoAllAttributes)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Partitioning.Validate(sub); err != nil {
		t.Fatal(err)
	}
	if _, err := fairrank.CompileQuery("][", ds.Schema()); err == nil {
		t.Error("malformed query accepted")
	}
}

func TestCampaignPublicAPI(t *testing.T) {
	ds := workers(t, 300, 17)
	funcs := []fairrank.ScoringFunc{
		linear(t, "fair", 0.5),
		genderBiased(t, 17),
	}
	audits, err := fairrank.RunCampaign(ds, funcs, fairrank.CampaignOptions{
		Rounds: 100, Parallelism: 2, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(audits) != 2 {
		t.Fatalf("%d audits", len(audits))
	}
	if !audits[1].Significant {
		t.Fatalf("biased function not flagged: %+v", audits[1])
	}
	if audits[1].Unfairness < 0.7 {
		t.Fatalf("biased unfairness = %v", audits[1].Unfairness)
	}
}

// ExampleAuditor demonstrates the basic audit flow.
func ExampleAuditor() {
	ds, _ := fairrank.GenerateWorkers(200, 42)
	f, _ := fairrank.NewRuleFunc("biased", 42, []fairrank.Rule{
		{When: fairrank.AttrIs("Gender", "Male"), Lo: 0.8, Hi: 1.0},
		{When: fairrank.AttrIs("Gender", "Female"), Lo: 0.0, Hi: 0.2},
	})
	res, _ := fairrank.NewAuditor().Audit(ds, f, fairrank.AlgoBalanced)
	attrs := res.Partitioning.AttributesUsed()
	fmt.Printf("split on %d attribute(s); unfairness > 0.7: %v\n",
		len(attrs), res.Unfairness > 0.7)
	// Output: split on 1 attribute(s); unfairness > 0.7: true
}
