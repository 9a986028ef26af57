package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"fairrank/internal/dataset"
	"fairrank/internal/emd"
	"fairrank/internal/rng"
)

func TestAlgorithmsSortedAndComplete(t *testing.T) {
	names := Algorithms()
	for _, want := range []string{
		"all-attributes", "balanced", "exhaustive", "exhaustive-cells",
		"r-balanced", "r-unbalanced", "unbalanced",
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing %q: %v", want, names)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Algorithms not sorted: %v", names)
		}
	}
}

func TestLookupUnknownListsRegistered(t *testing.T) {
	if _, err := Lookup("balanced"); err != nil {
		t.Fatal(err)
	}
	_, err := Lookup("quantum")
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if !strings.Contains(err.Error(), "balanced") || !strings.Contains(err.Error(), "exhaustive") {
		t.Errorf("error does not list registered names: %v", err)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn RunFunc) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("Register(%q) did not panic", name)
			}
		}()
		Register(name, fn)
	}
	noop := func(context.Context, *Evaluator, Spec) (*Result, error) { return nil, nil }
	mustPanic("", noop)
	mustPanic("x", nil)
	mustPanic("balanced", noop) // duplicate
}

// TestRunMatchesDirect pins the registry dispatch to the direct entry
// points, including the documented seed derivations for the random
// baselines (r-balanced from Seed+1, r-unbalanced from Seed+2).
func TestRunMatchesDirect(t *testing.T) {
	ds := randomDataset(t, 300, 5)
	direct := map[string]func(e *Evaluator) *Result{
		"balanced":       func(e *Evaluator) *Result { return Balanced(e, nil) },
		"unbalanced":     func(e *Evaluator) *Result { return Unbalanced(e, nil) },
		"all-attributes": func(e *Evaluator) *Result { return AllAttributes(e, nil) },
		"r-balanced":     func(e *Evaluator) *Result { return RBalanced(e, nil, rng.New(8)) },
		"r-unbalanced":   func(e *Evaluator) *Result { return RUnbalanced(e, nil, rng.New(9)) },
	}
	for name, run := range direct {
		want := run(mustEval(t, ds, Config{}))
		got, err := Run(context.Background(), Spec{
			Algorithm: name,
			Evaluator: mustEval(t, ds, Config{}),
			Seed:      7, // r-balanced reads 7+1, r-unbalanced 7+2
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Unfairness != want.Unfairness {
			t.Errorf("%s: Run %v != direct %v", name, got.Unfairness, want.Unfairness)
		}
		if got.Partitioning.Size() != want.Partitioning.Size() {
			t.Errorf("%s: Run found %d parts, direct %d",
				name, got.Partitioning.Size(), want.Partitioning.Size())
		}
		if got.Algorithm != want.Algorithm {
			t.Errorf("%s: algorithm label %q != %q", name, got.Algorithm, want.Algorithm)
		}
	}
}

func TestRunDefaults(t *testing.T) {
	ds := randomDataset(t, 100, 2)
	// Empty algorithm selects balanced; nil ctx is Background; the
	// evaluator is built from Dataset/Func/Config when absent.
	res, err := Run(nil, Spec{Dataset: ds, Func: scoreFunc, Config: Config{Bins: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "balanced" {
		t.Errorf("default algorithm = %q, want balanced", res.Algorithm)
	}
	want := Balanced(mustEval(t, ds, Config{Bins: 10}), nil)
	if res.Unfairness != want.Unfairness {
		t.Errorf("built-evaluator run %v != direct %v", res.Unfairness, want.Unfairness)
	}
}

func TestRunErrors(t *testing.T) {
	ds := randomDataset(t, 50, 3)
	if _, err := Run(context.Background(), Spec{Algorithm: "quantum", Dataset: ds, Func: scoreFunc}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := Run(context.Background(), Spec{}); err == nil {
		t.Error("nil dataset and evaluator accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Spec{Dataset: ds, Func: scoreFunc}); err != context.Canceled {
		t.Errorf("pre-cancelled ctx: err = %v, want context.Canceled", err)
	}
}

// TestRunStats: a run reports the reps it built and its rounds; the
// pair path (here the KS metric) reports the distances it computed, and
// the exact average of the default mode computes none.
func TestRunStats(t *testing.T) {
	ds := randomDataset(t, 300, 4)
	for _, metric := range []emd.Metric{emd.MetricEMD, emd.MetricKS} {
		res, err := Run(context.Background(), Spec{Evaluator: mustEval(t, ds, Config{Metric: metric})})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.RepsInterned <= 0 || (res.Stats.PairsComputed > 0) != (metric == emd.MetricKS) {
			t.Errorf("%v: run stats %+v", metric, res.Stats)
		}
		if res.Stats.Rounds != len(res.Steps) {
			t.Errorf("%v: Rounds = %d, len(Steps) = %d", metric, res.Stats.Rounds, len(res.Steps))
		}
		if res.Stats.PairsCopied != 0 || res.Stats.PairsPruned != 0 {
			t.Errorf("%v: copied or pruned pairs in %+v", metric, res.Stats)
		}
	}
}

// TestRunStatsAreDeltas reuses one evaluator across two identical runs of
// the exhaustive solver on its pair path (here the KS metric). Its memo is
// per run, so both runs compute and serve the same pairs, and both build
// the same child reps; only the first builds the row space's root rep,
// which the evaluator keeps. Stats that were not deltas would double in
// the second run.
func TestRunStatsAreDeltas(t *testing.T) {
	ds := randomDataset(t, 120, 4)
	e := mustEval(t, ds, Config{Metric: emd.MetricKS})
	spec := Spec{Algorithm: "exhaustive", Evaluator: e}
	first, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.RepsInterned <= 1 || first.Stats.PairsComputed <= 0 || first.Stats.CacheHits <= 0 {
		t.Errorf("first run stats empty: %+v", first.Stats)
	}
	second, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.PairsComputed != first.Stats.PairsComputed || second.Stats.CacheHits != first.Stats.CacheHits {
		t.Errorf("second run stats %+v, first %+v", second.Stats, first.Stats)
	}
	if second.Stats.RepsInterned != first.Stats.RepsInterned-1 {
		t.Errorf("second run built %d reps, want the first run's %d but the root", second.Stats.RepsInterned, first.Stats.RepsInterned)
	}
}

func TestRunProgressStreamsSteps(t *testing.T) {
	ds := randomDataset(t, 200, 6)
	var seen []TraceStep
	res, err := Run(context.Background(), Spec{
		Evaluator: mustEval(t, ds, Config{}),
		Progress:  func(s TraceStep) { seen = append(seen, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Steps) {
		t.Fatalf("progress saw %d steps, result has %d", len(seen), len(res.Steps))
	}
	for i := range seen {
		if seen[i] != res.Steps[i] {
			t.Errorf("step %d: progress %+v != result %+v", i, seen[i], res.Steps[i])
		}
	}
}

// TestRunCancelViaProgress cancels deterministically mid-run, from inside
// the first splitting decision's progress callback.
func TestRunCancelViaProgress(t *testing.T) {
	ds := randomDataset(t, 300, 7)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := Run(ctx, Spec{
		Evaluator: mustEval(t, ds, Config{}),
		Progress:  func(TraceStep) { cancel() },
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// bigDataset builds a population over eight ternary protected attributes —
// a tree space far too large to enumerate — for the cancellation tests.
func bigDataset(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	attrs := make([]dataset.Attribute, 8)
	for i := range attrs {
		attrs[i] = dataset.Cat(fmt.Sprintf("A%d", i), "x", "y", "z")
	}
	schema := &dataset.Schema{
		Protected: attrs,
		Observed:  []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
	r := rng.New(17)
	b := dataset.NewBuilder(schema)
	vals := []string{"x", "y", "z"}
	for i := 0; i < n; i++ {
		prot := map[string]any{}
		for j := range attrs {
			prot[fmt.Sprintf("A%d", j)] = rng.Pick(r, vals)
		}
		b.Add("w", prot, map[string]any{"Score": r.Float64()})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// hugeTreeSpec is an exhaustive run within its budget that would still run
// for hours: the tree space over four ternary attributes holds about 1.3e13
// partitionings.
func hugeTreeSpec(e *Evaluator) Spec {
	return Spec{Algorithm: "exhaustive", Evaluator: e, Attrs: []int{0, 1, 2, 3}, Budget: 1 << 62}
}

// TestRunCancellationPrompt cancels an exhaustive search that would
// otherwise run for hours and requires Run to return ctx.Err() promptly,
// with every engine goroutine gone afterwards.
func TestRunCancellationPrompt(t *testing.T) {
	ds := bigDataset(t, 2000)
	e, err := NewEvaluator(ds, scoreFunc, Config{Bins: 10})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, hugeTreeSpec(e))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return within 5s of cancellation")
	}

	// The engine's scan workers must all have exited; poll briefly since
	// goroutine teardown is asynchronous.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancellation",
				before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunDeadlineExceeded(t *testing.T) {
	ds := bigDataset(t, 1500)
	e, err := NewEvaluator(ds, scoreFunc, Config{Bins: 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = Run(ctx, hugeTreeSpec(e))
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline honored only after %v", elapsed)
	}
}
