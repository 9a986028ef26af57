package monitor

import (
	"fmt"
	"math"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/testkit"
)

// Metamorphic suite for the streaming monitor, on top of the bit-identical
// incremental-vs-Recompute contract pinned by delta_property_test.go:
// joins over distinct workers commute, and an arbitrary valid event stream
// leaves the monitor agreeing with the testkit oracle evaluated on the
// reconstructed live population.

const streamGroups = 4

func streamSchema() *dataset.Schema {
	return &dataset.Schema{
		Protected: []dataset.Attribute{dataset.Cat("G", "g0", "g1", "g2", "g3")},
		Observed:  []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
}

func streamMonitor(t *testing.T) *Monitor {
	t.Helper()
	m, err := New(streamSchema(), []string{"G"}, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func groupAttrs(g int) map[string]any {
	return map[string]any{"G": fmt.Sprintf("g%d", g)}
}

func applyEvent(t *testing.T, m *Monitor, ev testkit.Event) {
	t.Helper()
	var err error
	switch ev.Kind {
	case testkit.EventJoin:
		err = m.Join(ev.ID, groupAttrs(ev.Group), ev.Score)
	case testkit.EventLeave:
		err = m.Leave(ev.ID)
	case testkit.EventRescore:
		err = m.Rescore(ev.ID, ev.Score)
	}
	if err != nil {
		t.Fatalf("apply %+v: %v", ev, err)
	}
}

// Joins of distinct workers commute: any permutation of a joins-only stream
// must leave the monitor in a state with bit-identical unfairness. The
// incremental triangle is contracted to match Recompute exactly, and
// Recompute sums in canonical group order, so even the float result may not
// depend on arrival order.
func TestJoinsCommute(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		g := testkit.NewGen(seed)
		events := g.Joins(streamGroups, g.R.IntRange(2, 120))

		inOrder := streamMonitor(t)
		for _, ev := range events {
			applyEvent(t, inOrder, ev)
		}

		shuffled := append([]testkit.Event(nil), events...)
		g.R.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		reordered := streamMonitor(t)
		for _, ev := range shuffled {
			applyEvent(t, reordered, ev)
		}

		if a, b := inOrder.Unfairness(), reordered.Unfairness(); a != b {
			t.Fatalf("seed %d: join order changed unfairness: %v vs %v", seed, a, b)
		}
	}
}

// An arbitrary valid join/leave/rescore stream must keep three views in
// lockstep at every checkpoint: the incremental triangle, the from-scratch
// Recompute (bit-identical), and the testkit oracle evaluated on the live
// population reconstructed by replaying the stream (within Tol).
func TestEventStreamMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		g := testkit.NewGen(seed)
		events := g.Events(streamGroups, g.R.IntRange(10, 300))
		m := streamMonitor(t)
		live := map[string]testkit.Event{}

		for i, ev := range events {
			applyEvent(t, m, ev)
			switch ev.Kind {
			case testkit.EventJoin, testkit.EventRescore:
				live[ev.ID] = ev
			case testkit.EventLeave:
				delete(live, ev.ID)
			}
			if i%50 != 49 && i != len(events)-1 {
				continue
			}

			inc, batch := m.Unfairness(), m.Recompute()
			if inc != batch {
				t.Fatalf("seed %d event %d: incremental %v != recompute %v", seed, i, inc, batch)
			}

			scores, parts := oracleView(live)
			var o testkit.Oracle
			want := o.Unfairness(scores, parts, 10)
			if math.Abs(inc-want) > testkit.Tol {
				t.Fatalf("seed %d event %d: monitor %v, oracle %v (workers=%d groups=%d)",
					seed, i, inc, want, len(live), len(parts))
			}
		}
	}
}

// oracleView flattens the live worker set into a score column plus
// per-group index parts, skipping empty groups like the monitor does.
func oracleView(live map[string]testkit.Event) ([]float64, [][]int) {
	scores := make([]float64, 0, len(live))
	byGroup := make([][]int, streamGroups)
	for _, ev := range live {
		byGroup[ev.Group] = append(byGroup[ev.Group], len(scores))
		scores = append(scores, ev.Score)
	}
	var parts [][]int
	for _, idx := range byGroup {
		if len(idx) > 0 {
			parts = append(parts, idx)
		}
	}
	return scores, parts
}
