package monitor

import (
	"fmt"
	"math"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/partition"
	"fairrank/internal/rng"
	"fairrank/internal/scoring"
	"fairrank/internal/simulate"
)

func newMonitor(t *testing.T, attrs []string, threshold float64) *Monitor {
	t.Helper()
	m, err := New(simulate.PaperSchema(), attrs, 10, threshold)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func maleAttrs() map[string]any {
	return map[string]any{
		"Gender": "Male", "Country": "America", "YearOfBirth": 1980,
		"Language": "English", "Ethnicity": "White", "YearsExperience": 5,
	}
}

func femaleAttrs() map[string]any {
	a := maleAttrs()
	a["Gender"] = "Female"
	return a
}

func TestNewValidation(t *testing.T) {
	s := simulate.PaperSchema()
	if _, err := New(s, nil, 10, 0.1); err == nil {
		t.Error("no attributes accepted")
	}
	if _, err := New(s, []string{"Charisma"}, 10, 0.1); err == nil {
		t.Error("unknown attribute accepted")
	}
	if _, err := New(s, []string{"Gender"}, 10, -1); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := New(&dataset.Schema{}, []string{"Gender"}, 10, 0.1); err == nil {
		t.Error("invalid schema accepted")
	}
}

func TestJoinLeaveRescore(t *testing.T) {
	m := newMonitor(t, []string{"Gender"}, 0.5)
	if err := m.Join("w1", maleAttrs(), 0.9); err != nil {
		t.Fatal(err)
	}
	if err := m.Join("w1", maleAttrs(), 0.9); err == nil {
		t.Error("duplicate join accepted")
	}
	if err := m.Join("", maleAttrs(), 0.9); err == nil {
		t.Error("empty id accepted")
	}
	if err := m.Join("w2", femaleAttrs(), 0.1); err != nil {
		t.Fatal(err)
	}
	if m.Workers() != 2 || m.Groups() != 2 {
		t.Fatalf("workers=%d groups=%d", m.Workers(), m.Groups())
	}
	if err := m.Leave("w2"); err != nil {
		t.Fatal(err)
	}
	if m.Groups() != 1 {
		t.Fatalf("empty group not pruned: %d", m.Groups())
	}
	if err := m.Leave("w2"); err == nil {
		t.Error("double leave accepted")
	}
	if err := m.Rescore("w1", 0.2); err != nil {
		t.Fatal(err)
	}
	if err := m.Rescore("ghost", 0.5); err == nil {
		t.Error("rescore of unknown worker accepted")
	}
}

func TestJoinValidation(t *testing.T) {
	m := newMonitor(t, []string{"Gender", "YearOfBirth"}, 0.5)
	bad := maleAttrs()
	delete(bad, "Gender")
	if err := m.Join("w", bad, 0.5); err == nil {
		t.Error("missing attribute accepted")
	}
	bad2 := maleAttrs()
	bad2["Gender"] = 7
	if err := m.Join("w", bad2, 0.5); err == nil {
		t.Error("wrong type accepted")
	}
	bad3 := maleAttrs()
	bad3["Gender"] = "Robot"
	if err := m.Join("w", bad3, 0.5); err == nil {
		t.Error("unknown value accepted")
	}
	bad4 := maleAttrs()
	bad4["YearOfBirth"] = "old"
	if err := m.Join("w", bad4, 0.5); err == nil {
		t.Error("non-numeric year accepted")
	}
}

// TestNumericProtectedBuckets: a protected number past the attribute's
// range lands in the last bucket whatever the architecture, so a join at
// 1e300 shares the cell of a join at Max; NaN and ±Inf are refused, as
// dataset.Builder refuses them, and add no group.
func TestNumericProtectedBuckets(t *testing.T) {
	m := newMonitor(t, []string{"YearOfBirth"}, 0.5)
	at := func(year any) map[string]any {
		a := maleAttrs()
		a["YearOfBirth"] = year
		return a
	}
	if err := m.Join("max", at(2010.0), 0.2); err != nil {
		t.Fatal(err)
	}
	if err := m.Join("huge", at(1e300), 0.8); err != nil {
		t.Fatal(err)
	}
	if m.Groups() != 1 {
		t.Fatalf("joins at Max and at 1e300 fill %d groups, want 1", m.Groups())
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := m.Join(fmt.Sprint(v), at(v), 0.5); err == nil {
			t.Errorf("protected number %v accepted", v)
		}
		if m.Groups() != 1 || m.Workers() != 2 {
			t.Fatalf("refused join at %v left %d workers in %d groups", v, m.Workers(), m.Groups())
		}
	}
}

func TestUnfairnessTracksBias(t *testing.T) {
	m := newMonitor(t, []string{"Gender"}, 0.5)
	r := rng.New(1)
	// Biased regime: males ~0.9, females ~0.1.
	for i := 0; i < 100; i++ {
		m.Join(fmt.Sprintf("m%d", i), maleAttrs(), 0.85+0.1*r.Float64())
		m.Join(fmt.Sprintf("f%d", i), femaleAttrs(), 0.05+0.1*r.Float64())
	}
	u, breached := m.Alert()
	if u < 0.7 || !breached {
		t.Fatalf("biased stream: u=%v breached=%v", u, breached)
	}
	// Re-score everyone to the same distribution: unfairness collapses.
	for i := 0; i < 100; i++ {
		m.Rescore(fmt.Sprintf("m%d", i), 0.5)
		m.Rescore(fmt.Sprintf("f%d", i), 0.5)
	}
	u, breached = m.Alert()
	if u > 0.01 || breached {
		t.Fatalf("after equalization: u=%v breached=%v", u, breached)
	}
}

func TestMinWorkersWarmup(t *testing.T) {
	m := newMonitor(t, []string{"Gender"}, 0.2)
	m.SetMinWorkers(10)
	// Extreme but tiny sample: unfairness is high, alert must not fire.
	m.Join("m", maleAttrs(), 0.95)
	m.Join("f", femaleAttrs(), 0.05)
	u, breached := m.Alert()
	if u < 0.5 {
		t.Fatalf("u = %v, want high", u)
	}
	if breached {
		t.Fatal("alert fired during warm-up")
	}
	for i := 0; i < 10; i++ {
		m.Join(fmt.Sprintf("m%d", i), maleAttrs(), 0.95)
		m.Join(fmt.Sprintf("f%d", i), femaleAttrs(), 0.05)
	}
	if _, breached := m.Alert(); !breached {
		t.Fatal("alert suppressed after warm-up")
	}
}

func TestUnfairnessDegenerate(t *testing.T) {
	m := newMonitor(t, []string{"Gender"}, 0.5)
	if m.Unfairness() != 0 {
		t.Error("empty monitor unfairness != 0")
	}
	m.Join("w1", maleAttrs(), 0.5)
	if m.Unfairness() != 0 {
		t.Error("single-group unfairness != 0")
	}
}

func TestDriftDetection(t *testing.T) {
	// Start fair; let a biased cohort stream in; the alert must fire
	// somewhere along the way and the unfairness trace must rise.
	m := newMonitor(t, []string{"Gender"}, 0.3)
	r := rng.New(2)
	for i := 0; i < 200; i++ {
		s := r.Float64()
		if i%2 == 0 {
			m.Join(fmt.Sprintf("a%d", i), maleAttrs(), s)
		} else {
			m.Join(fmt.Sprintf("b%d", i), femaleAttrs(), s)
		}
	}
	before, breached := m.Alert()
	if breached {
		t.Fatalf("fair stream already breached: %v", before)
	}
	for i := 0; i < 400; i++ {
		m.Join(fmt.Sprintf("new%d", i), maleAttrs(), 0.95)
	}
	after, breached := m.Alert()
	if after <= before {
		t.Fatalf("drift not reflected: %v -> %v", before, after)
	}
	if !breached {
		t.Fatalf("alert did not fire at %v (threshold 0.3)", after)
	}
}

// The incremental monitor must agree with a batch evaluation of the same
// grouping on the same data.
func TestMatchesBatchEvaluator(t *testing.T) {
	ds, err := simulate.PaperWorkers(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := scoring.NewLinear("f", map[string]float64{"LanguageTest": 0.5, "ApprovalRate": 0.5})
	e, err := core.NewEvaluator(ds, f, core.Config{Bins: 10})
	if err != nil {
		t.Fatal(err)
	}
	gender := ds.Schema().ProtectedIndex("Gender")
	country := ds.Schema().ProtectedIndex("Country")
	parts := partition.SplitAll(ds, partition.Split(ds, partition.Root(ds), gender), country)
	want := e.AvgPairwise(parts)

	m := newMonitor(t, []string{"Gender", "Country"}, 1)
	schema := ds.Schema()
	for i := 0; i < ds.N(); i++ {
		prot := map[string]any{}
		for a, attr := range schema.Protected {
			if attr.Kind == dataset.Categorical {
				prot[attr.Name] = attr.Values[ds.Code(a, i)]
			} else {
				prot[attr.Name] = ds.RawProtected(a, i)
			}
		}
		if err := m.Join(fmt.Sprintf("w%d", i), prot, f.Score(ds, i)); err != nil {
			t.Fatal(err)
		}
	}
	got := m.Unfairness()
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("incremental %v != batch %v", got, want)
	}
}

func TestLeaveRestoresState(t *testing.T) {
	// Join then leave a cohort: unfairness returns to its prior value.
	m := newMonitor(t, []string{"Gender"}, 1)
	r := rng.New(3)
	for i := 0; i < 50; i++ {
		m.Join(fmt.Sprintf("m%d", i), maleAttrs(), r.Float64())
		m.Join(fmt.Sprintf("f%d", i), femaleAttrs(), r.Float64())
	}
	before := m.Unfairness()
	for i := 0; i < 30; i++ {
		m.Join(fmt.Sprintf("tmp%d", i), maleAttrs(), 0.99)
	}
	for i := 0; i < 30; i++ {
		if err := m.Leave(fmt.Sprintf("tmp%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	after := m.Unfairness()
	if math.Abs(before-after) > 1e-12 {
		t.Fatalf("join+leave not idempotent: %v vs %v", before, after)
	}
}
