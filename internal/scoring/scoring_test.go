package scoring

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/rng"
)

func testSchema() *dataset.Schema {
	return &dataset.Schema{
		Protected: []dataset.Attribute{
			dataset.Cat("Gender", "Male", "Female"),
			dataset.Cat("Country", "America", "India", "Other"),
			dataset.Num("YearOfBirth", 1950, 2010, 5),
		},
		Observed: []dataset.Attribute{
			dataset.Num("LanguageTest", 25, 100, 1),
			dataset.Num("ApprovalRate", 25, 100, 1),
		},
	}
}

func testData(t *testing.T) *dataset.Dataset {
	t.Helper()
	b := dataset.NewBuilder(testSchema())
	add := func(id, gender, country string, year int, lang, appr float64) {
		b.Add(id,
			map[string]any{"Gender": gender, "Country": country, "YearOfBirth": year},
			map[string]any{"LanguageTest": lang, "ApprovalRate": appr})
	}
	add("w0", "Male", "America", 1980, 100, 25)  // lang norm 1, appr norm 0
	add("w1", "Female", "India", 1990, 25, 100)  // lang norm 0, appr norm 1
	add("w2", "Male", "Other", 1960, 62.5, 62.5) // both norm 0.5
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewLinearValidation(t *testing.T) {
	if _, err := NewLinear("f", nil); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := NewLinear("f", map[string]float64{"a": -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewLinear("f", map[string]float64{"a": math.NaN()}); err == nil {
		t.Error("NaN weight accepted")
	}
	if _, err := NewLinear("f", map[string]float64{"a": math.Inf(1)}); err == nil {
		t.Error("Inf weight accepted")
	}
	if _, err := NewLinear("f", map[string]float64{"a": 0, "b": 0}); err == nil {
		t.Error("all-zero weights accepted")
	}
}

func TestLinearNormalizesWeights(t *testing.T) {
	f, err := NewLinear("f", map[string]float64{"LanguageTest": 2, "ApprovalRate": 2})
	if err != nil {
		t.Fatal(err)
	}
	w := f.Weights()
	if math.Abs(w["LanguageTest"]-0.5) > 1e-12 || math.Abs(w["ApprovalRate"]-0.5) > 1e-12 {
		t.Fatalf("weights not normalized: %v", w)
	}
}

func TestLinearScore(t *testing.T) {
	ds := testData(t)
	f, _ := NewLinear("f", map[string]float64{"LanguageTest": 0.7, "ApprovalRate": 0.3})
	cases := []struct {
		i    int
		want float64
	}{
		{0, 0.7}, // 0.7*1 + 0.3*0
		{1, 0.3}, // 0.7*0 + 0.3*1
		{2, 0.5},
	}
	for _, c := range cases {
		if got := f.Score(ds, c.i); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Score(w%d) = %v, want %v", c.i, got, c.want)
		}
	}
}

func TestLinearSingleAttribute(t *testing.T) {
	// The paper's f4 (α=1): LanguageTest only.
	ds := testData(t)
	f, _ := NewLinear("f4", map[string]float64{"LanguageTest": 1})
	if got := f.Score(ds, 0); got != 1 {
		t.Errorf("f4(w0) = %v, want 1", got)
	}
	if got := f.Score(ds, 1); got != 0 {
		t.Errorf("f4(w1) = %v, want 0", got)
	}
}

func TestLinearValidateAgainstSchema(t *testing.T) {
	f, _ := NewLinear("f", map[string]float64{"LanguageTest": 1})
	if err := f.Validate(testSchema()); err != nil {
		t.Errorf("valid attr rejected: %v", err)
	}
	g, _ := NewLinear("g", map[string]float64{"Charisma": 1})
	if err := g.Validate(testSchema()); err == nil {
		t.Error("unknown attr accepted")
	}
}

func TestLinearMissingAttributeScoresZeroContribution(t *testing.T) {
	ds := testData(t)
	f, _ := NewLinear("f", map[string]float64{"Charisma": 1})
	if got := f.Score(ds, 0); got != 0 {
		t.Errorf("missing-attr score = %v, want 0", got)
	}
}

func TestLinearString(t *testing.T) {
	f, _ := NewLinear("f1", map[string]float64{"B": 0.5, "A": 0.5})
	s := f.String()
	if !strings.HasPrefix(s, "f1 = ") || strings.Index(s, "A") > strings.Index(s, "B") {
		t.Errorf("String = %q", s)
	}
}

func TestScoreFuncAdapter(t *testing.T) {
	f := ScoreFunc{FuncName: "const", Fn: func(*dataset.Dataset, int) float64 { return 0.4 }}
	if f.Name() != "const" {
		t.Error("Name wrong")
	}
	ds := testData(t)
	if f.Score(ds, 0) != 0.4 {
		t.Error("Score wrong")
	}
}

func TestScoresColumn(t *testing.T) {
	ds := testData(t)
	f, _ := NewLinear("f", map[string]float64{"LanguageTest": 1})
	col := Scores(ds, f)
	if len(col) != 3 || col[0] != 1 || col[1] != 0 || col[2] != 0.5 {
		t.Fatalf("Scores = %v", col)
	}
}

func TestPredicates(t *testing.T) {
	ds := testData(t)
	male := AttrIs("Gender", "Male")
	if !male(ds, 0) || male(ds, 1) {
		t.Error("AttrIs wrong")
	}
	multi := AttrIs("Country", "America", "Other")
	if !multi(ds, 0) || multi(ds, 1) || !multi(ds, 2) {
		t.Error("multi-value AttrIs wrong")
	}
	if AttrIs("Nope", "x")(ds, 0) {
		t.Error("missing attribute matched")
	}
	if AttrIs("YearOfBirth", "x")(ds, 0) {
		t.Error("numeric attribute matched by AttrIs")
	}
	young := AttrInRange("YearOfBirth", 1985, 2010)
	if young(ds, 0) || !young(ds, 1) {
		t.Error("AttrInRange wrong")
	}
	if AttrInRange("Gender", 0, 1)(ds, 0) {
		t.Error("categorical attribute matched by AttrInRange")
	}
	if AttrInRange("Nope", 0, 1)(ds, 0) {
		t.Error("missing numeric attribute matched")
	}
	ma := And(male, AttrIs("Country", "America"))
	if !ma(ds, 0) || ma(ds, 2) {
		t.Error("And wrong")
	}
	either := Or(AttrIs("Country", "India"), AttrIs("Country", "Other"))
	if either(ds, 0) || !either(ds, 1) || !either(ds, 2) {
		t.Error("Or wrong")
	}
	if Not(male)(ds, 0) || !Not(male)(ds, 1) {
		t.Error("Not wrong")
	}
	if !Any()(ds, 0) {
		t.Error("Any wrong")
	}
}

func TestNewRuleFuncValidation(t *testing.T) {
	if _, err := NewRuleFunc("f", 1, nil); err == nil {
		t.Error("no rules accepted")
	}
	if _, err := NewRuleFunc("f", 1, []Rule{{When: nil, Lo: 0, Hi: 1}}); err == nil {
		t.Error("nil predicate accepted")
	}
	bad := [][2]float64{{-0.1, 0.5}, {0.5, 0.2}, {0.5, 0.5}, {0.5, 1.5}}
	for _, r := range bad {
		if _, err := NewRuleFunc("f", 1, []Rule{{When: Any(), Lo: r[0], Hi: r[1]}}); err == nil {
			t.Errorf("range [%v,%v) accepted", r[0], r[1])
		}
	}
}

func TestRuleFuncGenderBias(t *testing.T) {
	// The paper's f6: males > 0.8, females < 0.2.
	ds := testData(t)
	f6, err := NewRuleFunc("f6", 42, []Rule{
		{When: AttrIs("Gender", "Male"), Lo: 0.8, Hi: 1.0},
		{When: AttrIs("Gender", "Female"), Lo: 0.0, Hi: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := f6.Score(ds, 0); s < 0.8 || s >= 1 {
		t.Errorf("male score = %v", s)
	}
	if s := f6.Score(ds, 1); s < 0 || s >= 0.2 {
		t.Errorf("female score = %v", s)
	}
	if f6.Name() != "f6" {
		t.Error("Name wrong")
	}
}

func TestRuleFuncDeterministic(t *testing.T) {
	ds := testData(t)
	f, _ := NewRuleFunc("f", 7, []Rule{{When: Any(), Lo: 0, Hi: 1}})
	for i := 0; i < ds.N(); i++ {
		if f.Score(ds, i) != f.Score(ds, i) {
			t.Fatalf("score of worker %d not deterministic", i)
		}
	}
	g, _ := NewRuleFunc("g", 8, []Rule{{When: Any(), Lo: 0, Hi: 1}})
	if f.Score(ds, 0) == g.Score(ds, 0) {
		t.Error("different seeds gave identical scores (suspicious)")
	}
}

func TestRuleFuncFirstMatchWins(t *testing.T) {
	ds := testData(t)
	f, _ := NewRuleFunc("f", 1, []Rule{
		{When: AttrIs("Gender", "Male"), Lo: 0.9, Hi: 1.0},
		{When: Any(), Lo: 0.0, Hi: 0.1},
	})
	if s := f.Score(ds, 0); s < 0.9 {
		t.Errorf("first rule did not win: %v", s)
	}
	if s := f.Score(ds, 1); s >= 0.1 {
		t.Errorf("fallback rule not applied: %v", s)
	}
}

func TestRuleFuncNoMatchScoresZero(t *testing.T) {
	ds := testData(t)
	f, _ := NewRuleFunc("f", 1, []Rule{{When: AttrIs("Gender", "Robot"), Lo: 0.5, Hi: 1}})
	if s := f.Score(ds, 0); s != 0 {
		t.Errorf("unmatched worker score = %v, want 0", s)
	}
}

func TestHashUnitRange(t *testing.T) {
	for i := uint64(0); i < 10000; i++ {
		u := hashUnit(123, i)
		if u < 0 || u >= 1 {
			t.Fatalf("hashUnit out of range: %v", u)
		}
	}
}

// ScoreInto over any block split gives the bits of Score per worker, and
// so do Scores and ScoreColumn: for a Linear with a zero weight, an
// attribute missing from the schema and values outside the schema range
// (clamped), and for a ScoreFunc.
func TestScoreIntoMatchesScore(t *testing.T) {
	b := dataset.NewBuilder(testSchema())
	r := rng.New(5)
	const n = 1000
	for i := 0; i < n; i++ {
		b.Add(fmt.Sprintf("w%d", i),
			map[string]any{"Gender": "Male", "Country": "India", "YearOfBirth": 1980},
			map[string]any{"LanguageTest": r.FloatRange(20, 105), "ApprovalRate": r.FloatRange(25, 100)})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	linear, err := NewLinear("f", map[string]float64{"LanguageTest": 0.35, "ApprovalRate": 0.6, "Missing": 0.05, "Unused": 0})
	if err != nil {
		t.Fatal(err)
	}
	fn := ScoreFunc{FuncName: "g", Fn: func(ds *dataset.Dataset, i int) float64 { return ds.Observed(1, i) / 100 }}
	for _, f := range []Func{linear, fn} {
		want := make([]float64, n)
		for i := range want {
			want[i] = f.Score(ds, i)
		}
		same := func(label string, got []float64) {
			t.Helper()
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s %s: worker %d scored %v, Score %v", f.Name(), label, i, got[i], want[i])
				}
			}
		}
		same("Scores", Scores(ds, f))
		for _, size := range []int{1, 7, 256, n} {
			got := make([]float64, n)
			buf := make([]float64, size)
			for i := range buf {
				buf[i] = math.NaN() // a reused buffer's stale values must not leak
			}
			for lo := 0; lo < n; lo += size {
				blk := buf[:min(size, n-lo)]
				ScoreInto(ds, f, lo, blk)
				copy(got[lo:], blk)
			}
			same(fmt.Sprintf("blocks of %d", size), got)
		}
	}
	for i, s := range linear.ScoreColumn(ds) {
		if math.Float64bits(s) != math.Float64bits(linear.Score(ds, i)) {
			t.Fatalf("ScoreColumn: worker %d scored %v, Score %v", i, s, linear.Score(ds, i))
		}
	}
}

// ScoreBlock gives Score's bits at the edges of each attribute's range:
// values exactly at Min and Max, one ulp inside and outside, far outside,
// and −0 where Min is 0, in blocks that split them unevenly.
func TestScoreBlockRangeEdges(t *testing.T) {
	schema := &dataset.Schema{
		Protected: []dataset.Attribute{dataset.Cat("Gender", "Male", "Female")},
		Observed: []dataset.Attribute{
			dataset.Num("Unit", 0, 1, 1), dataset.Num("Rate", 25, 100, 1), dataset.Num("Shifted", -3, 7.5, 1),
		},
	}
	var vals [][3]float64
	for _, a := range schema.Observed {
		for _, v := range []float64{a.Min, a.Max, math.Nextafter(a.Min, math.Inf(1)), math.Nextafter(a.Min, math.Inf(-1)),
			math.Nextafter(a.Max, math.Inf(1)), math.Nextafter(a.Max, math.Inf(-1)), a.Min - 1e6, a.Max + 1e6, (a.Min + a.Max) / 3} {
			vals = append(vals, [3]float64{v, v, v})
		}
	}
	vals = append(vals, [3]float64{math.Copysign(0, -1), 25, -3})
	b := dataset.NewBuilder(schema)
	for i, v := range vals {
		b.Add(fmt.Sprintf("w%d", i), map[string]any{"Gender": "Male"}, map[string]any{"Unit": v[0], "Rate": v[1], "Shifted": v[2]})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, weights := range []map[string]float64{
		{"Unit": 1}, {"Rate": 0.4, "Shifted": 0.6}, {"Unit": 0.2, "Rate": 0.3, "Shifted": 0.5},
	} {
		linear, err := NewLinear("edges", weights)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, 4, len(vals)} {
			out := make([]float64, size)
			for lo := 0; lo < ds.N(); lo += size {
				blk := out[:min(size, ds.N()-lo)]
				linear.ScoreBlock(ds, lo, blk)
				for k, s := range blk {
					if want := linear.Score(ds, lo+k); math.Float64bits(s) != math.Float64bits(want) {
						t.Fatalf("%v, blocks of %d: worker %d scored %v, Score %v", weights, size, lo+k, s, want)
					}
				}
			}
		}
	}
}
