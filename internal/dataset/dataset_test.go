package dataset

import (
	"math"
	"strings"
	"testing"
)

// testSchema returns a small schema reminiscent of the paper's.
func testSchema() *Schema {
	return &Schema{
		Protected: []Attribute{
			Cat("Gender", "Male", "Female"),
			Cat("Country", "America", "India", "Other"),
			Num("YearOfBirth", 1950, 2010, 5),
		},
		Observed: []Attribute{
			Num("LanguageTest", 25, 100, 1),
			Num("ApprovalRate", 25, 100, 1),
		},
	}
}

func buildOne(t *testing.T) *Dataset {
	t.Helper()
	ds, err := NewBuilder(testSchema()).
		Add("w1", map[string]any{"Gender": "Male", "Country": "India", "YearOfBirth": 1984},
			map[string]any{"LanguageTest": 80.0, "ApprovalRate": 55.0}).
		Add("w2", map[string]any{"Gender": "Female", "Country": "America", "YearOfBirth": 1999.0},
			map[string]any{"LanguageTest": 90, "ApprovalRate": 70}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestKindString(t *testing.T) {
	if Categorical.String() != "categorical" || Numeric.String() != "numeric" {
		t.Error("Kind.String wrong")
	}
}

func TestAttributeValidate(t *testing.T) {
	cases := []struct {
		name string
		a    Attribute
		ok   bool
	}{
		{"good cat", Cat("G", "a", "b"), true},
		{"good num", Num("Y", 0, 1, 3), true},
		{"empty name", Cat("", "a"), false},
		{"no values", Cat("G"), false},
		{"empty value", Cat("G", "a", ""), false},
		{"dup value", Cat("G", "a", "a"), false},
		{"empty range", Num("Y", 1, 1, 3), false},
		{"inverted range", Num("Y", 2, 1, 3), false},
		{"zero buckets", Num("Y", 0, 1, 0), false},
		{"bad kind", Attribute{Name: "X", Kind: Kind(9)}, false},
	}
	for _, c := range cases {
		err := c.a.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, ok=%v", c.name, err, c.ok)
		}
	}
}

func TestAttributeCardinalityAndLabels(t *testing.T) {
	g := Cat("Gender", "Male", "Female")
	if g.Cardinality() != 2 {
		t.Errorf("cat cardinality = %d", g.Cardinality())
	}
	if g.ValueLabel(0) != "Male" || g.ValueLabel(1) != "Female" {
		t.Error("cat labels wrong")
	}
	if !strings.Contains(g.ValueLabel(5), "?") {
		t.Error("out-of-range label should be marked")
	}
	y := Num("Year", 1950, 2010, 5)
	if y.Cardinality() != 5 {
		t.Errorf("num cardinality = %d", y.Cardinality())
	}
	if got := y.ValueLabel(0); got != "[1950,1962)" {
		t.Errorf("bucket label = %q", got)
	}
	lo, hi := y.BucketBounds(4)
	if lo != 1998 || hi != 2010 {
		t.Errorf("bucket 4 bounds = %v,%v", lo, hi)
	}
}

func TestBucketIndex(t *testing.T) {
	y := Num("Year", 1950, 2010, 5) // width 12
	cases := []struct {
		v    float64
		want int
	}{
		{1950, 0}, {1961.9, 0}, {1962, 1}, {1997, 3}, {1998, 4}, {2010, 4},
		{1900, 0}, {2050, 4}, // clamped
		// Clamped in float space, the same on every architecture.
		{1e19, 4}, {1e300, 4}, {math.Inf(1), 4}, {-1e300, 0}, {math.Inf(-1), 0}, {math.NaN(), 0},
	}
	for _, c := range cases {
		if got := y.BucketIndex(c.v); got != c.want {
			t.Errorf("BucketIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	zero := Attribute{Name: "Z", Kind: Numeric, Min: 0, Max: 1, Buckets: 0}
	if zero.BucketIndex(0.5) != 0 {
		t.Error("zero-bucket attribute should map to 0")
	}
}

func TestCategoryIndex(t *testing.T) {
	g := Cat("Gender", "Male", "Female")
	if g.CategoryIndex("Female") != 1 {
		t.Error("CategoryIndex(Female) != 1")
	}
	if g.CategoryIndex("X") != -1 {
		t.Error("unknown category should be -1")
	}
}

func TestSchemaValidate(t *testing.T) {
	if err := testSchema().Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	var nilSchema *Schema
	if err := nilSchema.Validate(); err == nil {
		t.Error("nil schema accepted")
	}
	if err := (&Schema{Observed: []Attribute{Num("O", 0, 1, 1)}}).Validate(); err == nil {
		t.Error("no protected accepted")
	}
	if err := (&Schema{Protected: []Attribute{Cat("G", "a")}}).Validate(); err == nil {
		t.Error("no observed accepted")
	}
	dup := &Schema{
		Protected: []Attribute{Cat("X", "a")},
		Observed:  []Attribute{Num("X", 0, 1, 1)},
	}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate name accepted")
	}
	catObs := &Schema{
		Protected: []Attribute{Cat("G", "a")},
		Observed:  []Attribute{Cat("O", "x")},
	}
	if err := catObs.Validate(); err == nil {
		t.Error("categorical observed accepted")
	}
}

func TestSchemaIndexLookups(t *testing.T) {
	s := testSchema()
	if s.ProtectedIndex("Country") != 1 {
		t.Error("ProtectedIndex(Country) wrong")
	}
	if s.ProtectedIndex("Nope") != -1 {
		t.Error("missing protected should be -1")
	}
	if s.ObservedIndex("ApprovalRate") != 1 {
		t.Error("ObservedIndex(ApprovalRate) wrong")
	}
	if s.ObservedIndex("Gender") != -1 {
		t.Error("Gender is not observed")
	}
}

func TestSchemaCloneIndependent(t *testing.T) {
	s := testSchema()
	c := s.Clone()
	c.Protected[0].Values[0] = "Mutated"
	if s.Protected[0].Values[0] != "Male" {
		t.Error("Clone shares Values backing array")
	}
}

func TestBuilderHappyPath(t *testing.T) {
	ds := buildOne(t)
	if ds.N() != 2 {
		t.Fatalf("N = %d", ds.N())
	}
	if ds.ID(0) != "w1" || ds.ID(1) != "w2" {
		t.Error("IDs wrong")
	}
	if ds.Code(0, 0) != 0 || ds.Code(0, 1) != 1 {
		t.Error("Gender codes wrong")
	}
	if ds.Code(2, 0) != 2 { // 1984 → bucket [1974,1986)
		t.Errorf("YearOfBirth code = %d, want 2", ds.Code(2, 0))
	}
	if !math.IsNaN(ds.RawProtected(0, 0)) {
		t.Error("categorical raw should be NaN")
	}
	if ds.RawProtected(2, 0) != 1984 {
		t.Error("numeric raw wrong")
	}
	if ds.Observed(0, 0) != 80 || ds.Observed(1, 1) != 70 {
		t.Error("observed values wrong")
	}
	if ds.ProtectedLabel(0, 1) != "Female" {
		t.Error("ProtectedLabel wrong")
	}
	if got := ds.ObservedColumn(0); len(got) != 2 || got[0] != 80 {
		t.Error("ObservedColumn wrong")
	}
	idx := ds.AllIndices()
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 1 {
		t.Error("AllIndices wrong")
	}
}

func TestBuilderErrors(t *testing.T) {
	prot := map[string]any{"Gender": "Male", "Country": "India", "YearOfBirth": 1984}
	obs := map[string]any{"LanguageTest": 80.0, "ApprovalRate": 55.0}

	cases := []struct {
		name string
		mod  func(p, o map[string]any)
	}{
		{"missing protected", func(p, o map[string]any) { delete(p, "Gender") }},
		{"missing observed", func(p, o map[string]any) { delete(o, "ApprovalRate") }},
		{"unknown category", func(p, o map[string]any) { p["Gender"] = "Robot" }},
		{"wrong type for cat", func(p, o map[string]any) { p["Gender"] = 5 }},
		{"wrong type for num", func(p, o map[string]any) { p["YearOfBirth"] = "old" }},
		{"numeric out of range", func(p, o map[string]any) { p["YearOfBirth"] = 1800 }},
		{"NaN observed", func(p, o map[string]any) { o["LanguageTest"] = math.NaN() }},
		{"inf observed", func(p, o map[string]any) { o["LanguageTest"] = math.Inf(1) }},
	}
	for _, c := range cases {
		p := map[string]any{}
		o := map[string]any{}
		for k, v := range prot {
			p[k] = v
		}
		for k, v := range obs {
			o[k] = v
		}
		c.mod(p, o)
		if _, err := NewBuilder(testSchema()).Add("w", p, o).Build(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestBuilderEmptyAndInvalidSchema(t *testing.T) {
	if _, err := NewBuilder(testSchema()).Build(); err == nil {
		t.Error("empty dataset accepted")
	}
	bad := &Schema{}
	if _, err := NewBuilder(bad).Build(); err == nil {
		t.Error("invalid schema accepted")
	}
}

func TestBuilderErrorSticks(t *testing.T) {
	b := NewBuilder(testSchema())
	b.Add("bad", map[string]any{}, map[string]any{})
	b.Add("good", map[string]any{"Gender": "Male", "Country": "India", "YearOfBirth": 1984},
		map[string]any{"LanguageTest": 80.0, "ApprovalRate": 55.0})
	if _, err := b.Build(); err == nil {
		t.Error("first error did not stick")
	}
}

func TestSubset(t *testing.T) {
	ds := buildOne(t)
	sub, err := ds.Subset([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 1 || sub.ID(0) != "w2" {
		t.Fatalf("subset = %d workers, id %s", sub.N(), sub.ID(0))
	}
	if sub.Code(0, 0) != ds.Code(0, 1) || sub.Observed(1, 0) != ds.Observed(1, 1) {
		t.Fatal("subset values wrong")
	}
	// Duplicates allowed.
	dup, err := ds.Subset([]int{0, 0})
	if err != nil || dup.N() != 2 {
		t.Fatalf("dup subset: %v, %v", dup, err)
	}
	// Errors.
	if _, err := ds.Subset(nil); err == nil {
		t.Error("empty subset accepted")
	}
	if _, err := ds.Subset([]int{99}); err == nil {
		t.Error("out-of-range subset accepted")
	}
	// Schema independence.
	sub.Schema().Protected[0].Values[0] = "Mutated"
	if ds.Schema().Protected[0].Values[0] != "Male" {
		t.Error("subset shares schema storage")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := buildOne(t)
	var buf strings.Builder
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(buf.String()), testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != ds.N() {
		t.Fatalf("round-trip N = %d", back.N())
	}
	for i := 0; i < ds.N(); i++ {
		if back.ID(i) != ds.ID(i) {
			t.Errorf("worker %d id mismatch", i)
		}
		for a := range ds.Schema().Protected {
			if back.Code(a, i) != ds.Code(a, i) {
				t.Errorf("worker %d protected %d code mismatch", i, a)
			}
		}
		for a := range ds.Schema().Observed {
			if back.Observed(a, i) != ds.Observed(a, i) {
				t.Errorf("worker %d observed %d mismatch", i, a)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	s := testSchema()
	cases := []struct {
		name string
		csv  string
	}{
		{"empty", ""},
		{"wrong column count", "id,Gender\nw,Male\n"},
		{"bad first column", "x,Gender,Country,YearOfBirth,LanguageTest,ApprovalRate\n"},
		{"wrong protected name", "id,Sex,Country,YearOfBirth,LanguageTest,ApprovalRate\n"},
		{"wrong observed name", "id,Gender,Country,YearOfBirth,LangTest,ApprovalRate\n"},
		{"bad numeric protected", "id,Gender,Country,YearOfBirth,LanguageTest,ApprovalRate\nw,Male,India,old,80,55\n"},
		{"bad observed number", "id,Gender,Country,YearOfBirth,LanguageTest,ApprovalRate\nw,Male,India,1984,eighty,55\n"},
		{"unknown category", "id,Gender,Country,YearOfBirth,LanguageTest,ApprovalRate\nw,Alien,India,1984,80,55\n"},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.csv), s); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	ds := buildOne(t)
	var buf strings.Builder
	if err := ds.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(strings.NewReader(buf.String()), testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != ds.N() {
		t.Fatalf("round-trip N = %d", back.N())
	}
	for i := 0; i < ds.N(); i++ {
		for a := range ds.Schema().Protected {
			if back.Code(a, i) != ds.Code(a, i) {
				t.Errorf("worker %d protected %d code mismatch", i, a)
			}
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	s := testSchema()
	if _, err := ReadJSON(strings.NewReader("{not json"), s); err == nil {
		t.Error("malformed json accepted")
	}
	if _, err := ReadJSON(strings.NewReader("[]"), s); err == nil {
		t.Error("empty json dataset accepted")
	}
	missing := `[{"id":"w","protected":{"Gender":"Male"},"observed":{"LanguageTest":80,"ApprovalRate":55}}]`
	if _, err := ReadJSON(strings.NewReader(missing), s); err == nil {
		t.Error("missing protected attribute accepted")
	}
}
