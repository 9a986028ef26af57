package monitor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
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

// TestBirthsLayOutOnce: k groups born one after another and then one read
// lay the distance triangle out once. What seeding them allocates stays
// within a few triangles and their sum tree, where laying one out per
// birth allocates about k/3 triangles' worth (~150 MB at k = 300). The
// read matches Recompute bit for bit, and so does a read after half of
// the groups die.
func TestBirthsLayOutOnce(t *testing.T) {
	const k = 300
	m, err := New(benchSchema(k), []string{"Group"}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	ids := make([]string, k)
	prots := make([]map[string]any, k)
	for g := range ids {
		ids[g], prots[g] = fmt.Sprintf("w%d", g), map[string]any{"Group": fmt.Sprintf("g%02d", g)}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for g, id := range ids {
		if err := m.Join(id, prots[g], r.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	u := m.Unfairness()
	runtime.ReadMemStats(&after)
	triangle := uint64(k * (k - 1) / 2 * 8)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*triangle {
		t.Errorf("seeding %d groups allocated %d KB, over 8 triangles (%d KB)", k, grew>>10, 8*triangle>>10)
	}
	if want := m.Recompute(); u != want {
		t.Fatalf("after the births: incremental %v != recompute %v", u, want)
	}
	for _, id := range ids[:k/2] {
		if err := m.Leave(id); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := m.Unfairness(), m.Recompute(); got != want || m.Groups() != k-k/2 {
		t.Fatalf("after the deaths: incremental %v != recompute %v over %d groups", got, want, m.Groups())
	}
}
