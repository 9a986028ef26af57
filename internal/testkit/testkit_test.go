package testkit

import (
	"math"
	"testing"
)

// The oracle is the root of trust for every differential test in the repo,
// so it gets pinned to hand-computable cases and cross-checked against its
// own independent formulations before anything else relies on it.

func TestEMDFlowKnownValues(t *testing.T) {
	var o Oracle
	cases := []struct {
		p, q []float64
		unit float64
		want float64
	}{
		{[]float64{1, 0}, []float64{0, 1}, 1, 1},             // one bin apart
		{[]float64{1, 0, 0}, []float64{0, 0, 1}, 0.5, 1},     // two bins × 0.5
		{[]float64{0.5, 0.5}, []float64{0.5, 0.5}, 3, 0},     // identical
		{[]float64{0.5, 0, 0.5}, []float64{0, 1, 0}, 1, 1},   // split to center
		{[]float64{0.25, 0.75}, []float64{0.75, 0.25}, 2, 1}, // 0.5 mass × 1 bin × 2
	}
	for i, c := range cases {
		if got := o.EMDFlow(c.p, c.q, c.unit); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: EMDFlow = %v, want %v", i, got, c.want)
		}
		if back := o.EMDFlow(c.q, c.p, c.unit); math.Abs(back-c.want) > 1e-12 {
			t.Errorf("case %d: EMDFlow reversed = %v, want %v", i, back, c.want)
		}
	}
}

// The flow construction must agree with the textbook cumulative-sum closed
// form; both are stated independently here so a bug in either shows up.
func TestEMDFlowMatchesClosedForm(t *testing.T) {
	var o Oracle
	for seed := uint64(1); seed <= 200; seed++ {
		g := NewGen(seed)
		bins := g.R.IntRange(1, 30)
		p, q := g.PMF(bins), g.PMF(bins)
		unit := g.R.FloatRange(0.05, 2)
		cum, closed := 0.0, 0.0
		for i := 0; i < bins; i++ {
			cum += p[i] - q[i]
			closed += math.Abs(cum)
		}
		closed *= unit
		if got := o.EMDFlow(p, q, unit); math.Abs(got-closed) > 1e-9 {
			t.Fatalf("seed %d: flow %v != closed form %v", seed, got, closed)
		}
	}
}

func TestWpFlowKnownValues(t *testing.T) {
	var o Oracle
	if got := o.WpFlow([]float64{0}, []float64{1}, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("point masses W1 = %v, want 1", got)
	}
	if got := o.WpFlow([]float64{0, 1}, []float64{0, 1}, 2); got > 1e-12 {
		t.Errorf("identical samples W2 = %v, want 0", got)
	}
	// {0,1} vs {0.5, 0.5}: monotone coupling moves each half-mass 0.5.
	if got := o.WpFlow([]float64{0, 1}, []float64{0.5, 0.5}, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("W1 = %v, want 0.5", got)
	}
	// Same pair under W2: (0.5·0.25 + 0.5·0.25)^(1/2) = 0.5.
	if got := o.WpFlow([]float64{0, 1}, []float64{0.5, 0.5}, 2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("W2 = %v, want 0.5", got)
	}
	if got := o.WpFlow(nil, []float64{1}, 1); got != 0 {
		t.Errorf("empty sample = %v, want 0", got)
	}
}

func TestCountsMatchesClamping(t *testing.T) {
	var o Oracle
	vals := []float64{-5, 0, 0.05, 0.95, 1, 7, math.NaN()}
	counts := o.Counts(vals, 10, 0, 1)
	// -5 → 0, 0 → 0, 0.05 → 0, NaN → 0; 0.95, 1, 7 → 9.
	if counts[0] != 4 || counts[9] != 3 {
		t.Fatalf("counts = %v", counts)
	}
	total := 0.0
	for _, c := range counts {
		total += c
	}
	if total != float64(len(vals)) {
		t.Fatalf("mass lost: %v of %d", total, len(vals))
	}
}

func TestPMFUniformWhenEmpty(t *testing.T) {
	var o Oracle
	pmf := o.PMF(make([]float64, 4))
	for _, v := range pmf {
		if v != 0.25 {
			t.Fatalf("empty-count PMF = %v, want uniform", pmf)
		}
	}
}

func TestSetPartitionsBellCounts(t *testing.T) {
	var o Oracle
	wantBell := []int{1, 1, 2, 5, 15, 52, 203, 877}
	for n, want := range wantBell {
		if got := o.Bell(n); got != want {
			t.Errorf("Bell(%d) = %d, want %d", n, got, want)
		}
		if n == 0 {
			continue
		}
		parts := o.SetPartitions(n)
		if len(parts) != want {
			t.Errorf("SetPartitions(%d) yields %d, want %d", n, len(parts), want)
		}
		seen := map[string]bool{}
		for _, blocks := range parts {
			total := 0
			for _, b := range blocks {
				total += len(b)
			}
			if total != n {
				t.Fatalf("partition %v covers %d of %d elements", blocks, total, n)
			}
			key := BlockKey(blocks)
			if seen[key] {
				t.Fatalf("duplicate partition %q", key)
			}
			seen[key] = true
		}
	}
}

func TestUnfairnessOracleTwoPointGroups(t *testing.T) {
	var o Oracle
	// Two groups at opposite histogram ends: EMD = 9 bins × 0.1 = 0.9,
	// matching the paper-calibrated example in internal/core's tests.
	scores := []float64{0.05, 0.95}
	got := o.Unfairness(scores, [][]int{{0}, {1}}, 10)
	if math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("unfairness = %v, want 0.9", got)
	}
	if v := o.ExactUnfairness(scores, [][]int{{0}, {1}}); math.Abs(v-0.9) > 1e-12 {
		t.Fatalf("exact unfairness = %v, want 0.9", v)
	}
}

func TestGenDeterminism(t *testing.T) {
	a, b := NewGen(42), NewGen(42)
	dsA, errA := a.WorkerDataset(50)
	dsB, errB := b.WorkerDataset(50)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if dsA.N() != dsB.N() {
		t.Fatalf("sizes differ: %d vs %d", dsA.N(), dsB.N())
	}
	for i := 0; i < dsA.N(); i++ {
		if dsA.Observed(0, i) != dsB.Observed(0, i) {
			t.Fatalf("row %d scores differ", i)
		}
	}
	ptA, ptB := a.Partitioning(dsA), b.Partitioning(dsB)
	if len(ptA.Parts) != len(ptB.Parts) {
		t.Fatalf("partitionings differ: %d vs %d parts", len(ptA.Parts), len(ptB.Parts))
	}
	if err := ptA.Validate(dsA); err != nil {
		t.Fatalf("generated partitioning invalid: %v", err)
	}
}

func TestEventsStreamValidity(t *testing.T) {
	g := NewGen(7)
	events := g.Events(4, 400)
	live := map[string]bool{}
	for i, ev := range events {
		switch ev.Kind {
		case EventJoin:
			if live[ev.ID] {
				t.Fatalf("event %d: duplicate join of %s", i, ev.ID)
			}
			live[ev.ID] = true
		case EventLeave:
			if !live[ev.ID] {
				t.Fatalf("event %d: leave of dead %s", i, ev.ID)
			}
			delete(live, ev.ID)
		case EventRescore:
			if !live[ev.ID] {
				t.Fatalf("event %d: rescore of dead %s", i, ev.ID)
			}
		}
		if ev.Group < 0 || ev.Group >= 4 {
			t.Fatalf("event %d: group %d out of range", i, ev.Group)
		}
	}
}

func TestSpecialFloatsDecoding(t *testing.T) {
	vals := SpecialFloats([]byte{0, 100, 250, 251, 252, 253, 254, 255})
	if vals[0] != 0 || vals[1] != 0.5 || vals[2] != 1 || vals[3] != 2 || vals[4] != -1 {
		t.Fatalf("plain decodes wrong: %v", vals)
	}
	if !math.IsInf(vals[5], -1) || !math.IsInf(vals[6], 1) || !math.IsNaN(vals[7]) {
		t.Fatalf("specials decode wrong: %v", vals)
	}
}
