package partition

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"fairrank/internal/dataset"
	"fairrank/internal/rng"
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

// buildRandom creates n workers with random attribute values.
func buildRandom(t *testing.T, n int, seed uint64) *dataset.Dataset {
	t.Helper()
	r := rng.New(seed)
	b := dataset.NewBuilder(testSchema())
	genders := []string{"Male", "Female"}
	langs := []string{"English", "Indian", "Other"}
	for i := 0; i < n; i++ {
		b.Add("w", map[string]any{
			"Gender":   rng.Pick(r, genders),
			"Language": rng.Pick(r, langs),
		}, map[string]any{"Score": r.Float64()})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestRootContainsEveryone(t *testing.T) {
	ds := buildRandom(t, 20, 1)
	root := Root(ds)
	if root.Size() != 20 || len(root.Constraints) != 0 {
		t.Fatalf("root size=%d constraints=%v", root.Size(), root.Constraints)
	}
	if root.Key() != "*" {
		t.Errorf("root key = %q", root.Key())
	}
	if root.Label(ds.Schema()) != "ALL" {
		t.Errorf("root label = %q", root.Label(ds.Schema()))
	}
}

func TestSplitPartitionInvariants(t *testing.T) {
	ds := buildRandom(t, 50, 2)
	root := Root(ds)
	children := Split(ds, root, 0)
	if len(children) != 2 {
		t.Fatalf("gender split gave %d children", len(children))
	}
	total := 0
	for _, c := range children {
		total += c.Size()
		if len(c.Constraints) != 1 || c.Constraints[0].Attr != 0 {
			t.Errorf("child constraints = %v", c.Constraints)
		}
		// Every member must actually have the constrained value.
		for _, i := range c.Indices {
			if ds.Code(0, i) != c.Constraints[0].Value {
				t.Errorf("worker %d in wrong gender partition", i)
			}
		}
	}
	if total != 50 {
		t.Fatalf("children cover %d of 50", total)
	}
}

func TestSplitDropsEmptyValues(t *testing.T) {
	// All workers male: split on gender returns one child.
	b := dataset.NewBuilder(testSchema())
	for i := 0; i < 5; i++ {
		b.Add("w", map[string]any{"Gender": "Male", "Language": "English"},
			map[string]any{"Score": 0.5})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	children := Split(ds, Root(ds), 0)
	if len(children) != 1 || children[0].Size() != 5 {
		t.Fatalf("split = %d children", len(children))
	}
}

func TestSplitAll(t *testing.T) {
	ds := buildRandom(t, 100, 3)
	l1 := Split(ds, Root(ds), 0)
	l2 := SplitAll(ds, l1, 1)
	pt := &Partitioning{Parts: l2}
	if err := pt.Validate(ds); err != nil {
		t.Fatalf("two-level split invalid: %v", err)
	}
	if len(l2) > 6 {
		t.Fatalf("%d parts from 2x3 cross", len(l2))
	}
}

func TestKeyOrderIndependent(t *testing.T) {
	a := &Partition{Constraints: []Constraint{{0, 1}, {1, 2}}}
	b := &Partition{Constraints: []Constraint{{1, 2}, {0, 1}}}
	if a.Key() != b.Key() {
		t.Fatalf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	c := &Partition{Constraints: []Constraint{{0, 0}, {1, 2}}}
	if a.Key() == c.Key() {
		t.Fatal("different constraints share a key")
	}
}

func TestLabel(t *testing.T) {
	s := testSchema()
	p := &Partition{Constraints: []Constraint{{0, 0}, {1, 1}}}
	if got := p.Label(s); got != "Gender=Male ∧ Language=Indian" {
		t.Errorf("Label = %q", got)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	ds := buildRandom(t, 10, 4)
	var empty *Partitioning
	if err := empty.Validate(ds); err == nil {
		t.Error("nil partitioning accepted")
	}
	if err := (&Partitioning{}).Validate(ds); err == nil {
		t.Error("empty partitioning accepted")
	}
	dup := &Partitioning{Parts: []*Partition{
		{Indices: ds.AllIndices()},
		{Indices: []int{0}},
	}}
	if err := dup.Validate(ds); err == nil {
		t.Error("overlapping partitioning accepted")
	}
	hole := &Partitioning{Parts: []*Partition{{Indices: []int{0, 1, 2}}}}
	if err := hole.Validate(ds); err == nil {
		t.Error("incomplete partitioning accepted")
	}
	oob := &Partitioning{Parts: []*Partition{{Indices: []int{999}}}}
	if err := oob.Validate(ds); err == nil {
		t.Error("out-of-range index accepted")
	}
}

// Property: any random sequence of splits yields a valid partitioning.
func TestSplitSequenceInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		ds := buildRandom(&testing.T{}, 30+r.Intn(50), seed)
		parts := []*Partition{Root(ds)}
		attrs := r.Perm(len(ds.Schema().Protected))
		for _, a := range attrs {
			if r.Intn(2) == 0 {
				parts = SplitAll(ds, parts, a)
			} else if len(parts) > 0 {
				// Split only one random partition (unbalanced shape).
				k := r.Intn(len(parts))
				children := Split(ds, parts[k], a)
				parts = append(parts[:k:k], append(children, parts[k+1:]...)...)
			}
		}
		pt := &Partitioning{Parts: parts}
		return pt.Validate(ds) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDescribe(t *testing.T) {
	ds := buildRandom(t, 40, 5)
	parts := Split(ds, Root(ds), 0)
	pt := &Partitioning{Parts: parts}
	d := pt.Describe(ds.Schema())
	if !strings.Contains(d, "Gender=Male") || !strings.Contains(d, "Gender=Female") {
		t.Errorf("Describe = %q", d)
	}
}

func TestAttributesUsed(t *testing.T) {
	ds := buildRandom(t, 40, 6)
	l1 := Split(ds, Root(ds), 1)
	l2 := SplitAll(ds, l1, 0)
	pt := &Partitioning{Parts: l2}
	used := pt.AttributesUsed()
	if len(used) != 2 || used[0] != 0 || used[1] != 1 {
		t.Fatalf("AttributesUsed = %v", used)
	}
	if got := (&Partitioning{Parts: []*Partition{Root(ds)}}).AttributesUsed(); len(got) != 0 {
		t.Fatalf("root AttributesUsed = %v", got)
	}
}

func TestNamedPartitionKeyAndLabel(t *testing.T) {
	p := &Partition{Name: "{c0+c3}", Indices: []int{0}}
	if p.Key() != "name:{c0+c3}" {
		t.Errorf("Key = %q", p.Key())
	}
	if p.Label(testSchema()) != "{c0+c3}" {
		t.Errorf("Label = %q", p.Label(testSchema()))
	}
}

func TestCountTreesMatchesEnumeration(t *testing.T) {
	if got := CountTrees([]int{2, 3}); got != 13 {
		t.Fatalf("CountTrees(2,3) = %v, want 13", got)
	}
	if got := CountTrees(nil); got != 1 {
		t.Fatalf("CountTrees() = %v, want 1", got)
	}
}

func TestCountTreesExplodes(t *testing.T) {
	// The paper's setting: 6 attributes with ≤5 values each. The count
	// must be astronomically large — the hardness argument.
	got := CountTrees([]int{2, 3, 5, 3, 4, 5})
	if !math.IsInf(got, 1) && got < 1e12 {
		t.Fatalf("paper-sized space suspiciously small: %v", got)
	}
}
