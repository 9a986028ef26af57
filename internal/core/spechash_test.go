package core

import (
	"strings"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/scoring"
	"fairrank/internal/testkit"
)

// TestSpecHashSemanticEquivalence pins the normalizations Hash promises:
// every spec pair that Run treats identically must collapse to one hash.
func TestSpecHashSemanticEquivalence(t *testing.T) {
	g := testkit.NewGen(7)
	ds, err := g.WorkerDataset(60)
	if err != nil {
		t.Fatal(err)
	}
	f := testkit.ScoreFunc()
	base := Spec{Dataset: ds, Func: f, Seed: 3}

	equal := func(name string, a, b Spec) {
		t.Helper()
		if ha, hb := a.Hash(), b.Hash(); ha != hb {
			t.Errorf("%s: hashes differ:\n  %s\n  %s", name, ha, hb)
		}
	}
	differ := func(name string, a, b Spec) {
		t.Helper()
		if ha, hb := a.Hash(), b.Hash(); ha == hb {
			t.Errorf("%s: hashes should differ but both are %s", name, ha)
		}
	}

	// Defaults normalize to their explicit values.
	explicit := base
	explicit.Algorithm = "balanced"
	explicit.Config.Bins = 10
	explicit.Config.MinPartitionSize = 1
	explicit.Budget = DefaultExhaustiveBudget
	explicit.Attrs = make([]int, len(ds.Schema().Protected))
	for i := range explicit.Attrs {
		explicit.Attrs[i] = i
	}
	equal("zero defaults vs explicit defaults", base, explicit)

	// Parallelism never changes results, so it never changes the hash.
	par := base
	par.Config.Parallelism = 7
	equal("parallelism excluded", base, par)

	// Progress observation does not change the audit.
	prog := base
	prog.Progress = func(TraceStep) {}
	equal("progress excluded", base, prog)

	// A prebuilt evaluator hashes through its content, not its identity.
	e, err := NewEvaluator(ds, f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	equal("evaluator vs dataset+func", base, Spec{Evaluator: e, Seed: 3})

	// Result-changing fields must change the hash.
	algo := base
	algo.Algorithm = "unbalanced"
	differ("algorithm", base, algo)
	seed := base
	seed.Seed = 4
	differ("seed", base, seed)
	bins := base
	bins.Config.Bins = 20
	differ("bins", base, bins)
	exact := base
	exact.Config.Exact = true
	differ("exact", base, exact)
	if len(ds.Schema().Protected) > 1 {
		attrs := base
		attrs.Attrs = []int{0}
		differ("attribute subset", base, attrs)
	}

	// A different population is a different audit.
	ds2, err := g.WorkerDataset(60)
	if err != nil {
		t.Fatal(err)
	}
	other := base
	other.Dataset = ds2
	differ("dataset content", base, other)
}

// TestSpecHashWeightsCanonical pins that weight tables hash by content:
// map iteration order must not leak in, and adjacent keys must not be
// confusable via concatenation.
func TestSpecHashWeightsCanonical(t *testing.T) {
	g := testkit.NewGen(11)
	ds, err := g.WorkerDataset(40)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(weights map[string]float64) Spec {
		f, err := scoring.NewLinear("fn", weights)
		if err != nil {
			t.Fatal(err)
		}
		return Spec{Dataset: ds, Func: f}
	}
	a := mk(map[string]float64{"Score": 1, "Other": 2})
	for i := 0; i < 16; i++ {
		b := mk(map[string]float64{"Other": 2, "Score": 1})
		if a.Hash() != b.Hash() {
			t.Fatalf("weight map order leaked into hash on round %d", i)
		}
	}
	// Same concatenated bytes, different field boundaries.
	x := mk(map[string]float64{"ab": 1, "c": 2})
	y := mk(map[string]float64{"a": 1, "bc": 2})
	if x.Hash() == y.Hash() {
		t.Fatal("weight key boundaries are forgeable by concatenation")
	}
}

// pinnedDataset is a literal 3-worker population for TestSpecHashStable:
// spelled out here, not generated, so the pin moves only when the dataset
// digest's encoding does.
func pinnedDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	schema := &dataset.Schema{
		Protected: []dataset.Attribute{
			dataset.Cat("Gender", "Male", "Female"),
			dataset.Num("YearOfBirth", 1950, 2010, 4),
		},
		Observed: []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
	ds, err := dataset.NewBuilder(schema).
		Add("w1", map[string]any{"Gender": "Male", "YearOfBirth": 1960.5}, map[string]any{"Score": 0.25}).
		Add("w2", map[string]any{"Gender": "Female", "YearOfBirth": 1984}, map[string]any{"Score": 0.75}).
		Add("w3", map[string]any{"Gender": "Female", "YearOfBirth": 2001}, map[string]any{"Score": 0.5}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestSpecHashStable guards the serialization against accidental drift:
// the hash is persisted in job records, so changing it silently would
// orphan every deduplicated result after an upgrade. Update the pinned
// values only with a version bump in the serialization tag. The second
// pin covers the dataset digest's encoding, which the nil-dataset pin
// never reaches.
func TestSpecHashStable(t *testing.T) {
	f, err := scoring.NewLinear("fn", map[string]float64{"Score": 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		spec Spec
		want string
	}{
		// Dataset nil keeps this pin independent of generator internals.
		{"nil dataset", Spec{Algorithm: "balanced", Func: f, Seed: 1},
			"d242e4fe0a774727a7e8b4b1c6261baadc24dcaf51b40a7e645d54e77f08946c"},
		{"3-worker dataset", Spec{Algorithm: "balanced", Dataset: pinnedDataset(t), Func: f, Seed: 1},
			"b1e2706ce75aa4760b10eec20fa764c3f17688617063b93f49f904ccc7549aca"},
	} {
		if got := c.spec.Hash(); got != c.want {
			t.Errorf("%s: canonical hash drifted:\n  got  %s\n  want %s", c.name, got, c.want)
		}
	}
}

// TestSpecHashLongWorkerID: the dataset's identity covers every byte, so
// two populations that differ only after a worker id too long for the
// legacy row format (64 KiB per id) are two audits.
func TestSpecHashLongWorkerID(t *testing.T) {
	schema := &dataset.Schema{
		Protected: []dataset.Attribute{dataset.Cat("Gender", "Male", "Female")},
		Observed:  []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
	build := func(lastScore float64) *dataset.Dataset {
		ds, err := dataset.NewBuilder(schema).
			Add("w1", map[string]any{"Gender": "Male"}, map[string]any{"Score": 0.1}).
			Add(strings.Repeat("x", 70000), map[string]any{"Gender": "Female"}, map[string]any{"Score": 0.2}).
			Add("w3", map[string]any{"Gender": "Male"}, map[string]any{"Score": lastScore}).
			Build()
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	f := testkit.ScoreFunc()
	a := Spec{Dataset: build(0.3), Func: f}
	b := Spec{Dataset: build(0.9), Func: f}
	if ha, hb := a.Hash(), b.Hash(); ha == hb {
		t.Fatalf("datasets differing after a 70000-byte id share spec hash %s", ha)
	}
}

// TestSpecHashAllocsFlatInN is the "spec hash flat in N" gate, made
// deterministic: once a dataset's digest is cached, hashing a spec over it
// allocates the same at 100 and at 100000 workers, so no pass over the
// population remains on the submit path.
func TestSpecHashAllocsFlatInN(t *testing.T) {
	g := testkit.NewGen(5)
	schema := g.Schema()
	f := testkit.ScoreFunc()
	allocs := map[int]float64{}
	for _, n := range []int{100, 100000} {
		ds, err := g.Dataset(schema, n)
		if err != nil {
			t.Fatal(err)
		}
		s := Spec{Dataset: ds, Func: f, Seed: 2}
		s.Hash() // computes and caches the digest
		allocs[n] = testing.AllocsPerRun(20, func() { _ = s.Hash() })
	}
	if allocs[100] != allocs[100000] {
		t.Fatalf("Spec.Hash allocates %v at 100 workers but %v at 100000", allocs[100], allocs[100000])
	}
}
