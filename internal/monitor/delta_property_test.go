package monitor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fairrank/internal/emd"
	"fairrank/internal/histogram"
	"fairrank/internal/rng"
	"fairrank/internal/simulate"
)

// TestQuickMonitorDelta is the property-based gate on the monitor's delta
// path: after an arbitrary Join/Leave/Rescore sequence (including group
// births and deaths), the incrementally maintained triangle agrees with
// Recompute bit-for-bit (same sum-tree reduction over fresh distances) and
// with a from-scratch serial pair sum over the live histograms to 1e-9
// (serial reduction order differs, values do not).
func TestQuickMonitorDelta(t *testing.T) {
	prop := func(seed uint64) bool {
		m, err := New(simulate.PaperSchema(), []string{"Gender", "Language"}, 8, 1)
		if err != nil {
			return false
		}
		r := rng.New(seed)
		genders := []string{"Male", "Female"}
		langs := []string{"English", "Indian", "Other"}
		var live []string
		next := 0
		steps := 120 + int(seed%120)
		for step := 0; step < steps; step++ {
			switch op := r.Intn(4); {
			case op <= 1 || len(live) == 0: // join (biased so the population grows)
				id := fmt.Sprintf("w%d", next)
				next++
				prot := map[string]any{
					"Gender":   rng.Pick(r, genders),
					"Language": rng.Pick(r, langs),
				}
				if err := m.Join(id, prot, r.Float64()); err != nil {
					return false
				}
				live = append(live, id)
			case op == 2: // leave
				x := r.Intn(len(live))
				if err := m.Leave(live[x]); err != nil {
					return false
				}
				live[x] = live[len(live)-1]
				live = live[:len(live)-1]
			default: // rescore
				if err := m.Rescore(live[r.Intn(len(live))], r.Float64()); err != nil {
					return false
				}
			}
			if step%10 != 0 && step != steps-1 {
				continue
			}
			got, want := m.Unfairness(), m.Recompute()
			if got != want { // bit-identical contract with the oracle
				t.Logf("seed %d step %d: incremental %v != recompute %v", seed, step, got, want)
				return false
			}
			if ref := refAveragePairwise(m); math.Abs(got-ref) > 1e-9 {
				t.Logf("seed %d step %d: incremental %v vs serial %v", seed, step, got, ref)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// refAveragePairwise evaluates the monitor's grouping from scratch with
// the serial batch reduction the old monitor used, normalizing each
// group's masses as histogram.NormalizeCounts does.
func refAveragePairwise(m *Monitor) float64 {
	if len(m.order) < 2 {
		return 0
	}
	sum, pairs := 0.0, 0
	for i, a := range m.order { // order is sorted by key
		for _, b := range m.order[i+1:] {
			pa, pb := histogram.NormalizeCounts(a.mass), histogram.NormalizeCounts(b.mass)
			sum += emd.PMFDistance(pa, pb, 1/float64(m.bins))
			pairs++
		}
	}
	return sum / float64(pairs)
}

// TestStructuralRebuild exercises group birth and death directly: the
// triangle must stay consistent with Recompute across both.
func TestStructuralRebuild(t *testing.T) {
	m := newMonitor(t, []string{"Gender", "Language"}, 1)
	attrs := func(g, l string) map[string]any {
		a := maleAttrs()
		a["Gender"], a["Language"] = g, l
		return a
	}
	check := func() {
		t.Helper()
		if got, want := m.Unfairness(), m.Recompute(); got != want {
			t.Fatalf("incremental %v != recompute %v", got, want)
		}
	}
	m.Join("a", attrs("Male", "English"), 0.9)
	check()
	m.Join("b", attrs("Female", "English"), 0.2)
	check()
	m.Join("c", attrs("Female", "Indian"), 0.5) // third group born
	check()
	m.Join("d", attrs("Male", "Other"), 0.7) // fourth group born
	check()
	if err := m.Leave("c"); err != nil { // third group dies
		t.Fatal(err)
	}
	if m.Groups() != 3 {
		t.Fatalf("groups = %d, want 3", m.Groups())
	}
	check()
	m.Rescore("d", 0.1)
	check()
}
