package drift

import (
	"fmt"
	"testing"
	"unsafe"

	"fairrank/internal/dataset"
	"fairrank/internal/monitor"
	"fairrank/internal/rng"
)

// benchStream builds a steady-state workload over a fixed worker
// population split across two groups: a prelude that joins every worker
// once, and a cyclic stream where each worker in turn leaves, rejoins,
// and is rescored twice. Looping the cyclic slice is always a valid
// stream for both the unbounded monitor and the window, the population
// never dips by more than one, and no group ever empties — so the
// steady state has no structural rebuilds, only delta-path work.
func benchStream(workers int) (prelude, cycle []Event) {
	id := func(i int) string { return fmt.Sprintf("bw%d", i) }
	score := func(i, salt int) float64 { return float64((i*salt+7)%97) / 97 }
	for i := 0; i < workers; i++ {
		prelude = append(prelude, Event{Type: EventJoin, Worker: id(i), Protected: groupAttrMaps[i%2], Score: score(i, 1)})
	}
	for i := 0; i < workers; i++ {
		cycle = append(cycle,
			Event{Type: EventLeave, Worker: id(i)},
			Event{Type: EventJoin, Worker: id(i), Protected: groupAttrMaps[i%2], Score: score(i, 13)},
			Event{Type: EventRescore, Worker: id(i), Score: score(i, 31)},
			Event{Type: EventRescore, Worker: id(i), Score: score(i, 57)},
		)
	}
	return prelude, cycle
}

func seedAnchors(tb testing.TB, join func(string, map[string]any, float64) error) {
	tb.Helper()
	for g := 0; g < 2; g++ {
		for i := 0; i < 2; i++ {
			if err := join(fmt.Sprintf("anchor%d-%d", g, i), groupAttrMaps[g], 0.25+0.5*float64(g)); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// solo feeds one estimator the way Watch.applyEstimators feeds all three:
// one lookup in a worker table, the duplicate and unknown checks and a
// join's cell resolution, then the estimator's slot methods. The
// benchmarks time one estimator alone through it; a whole watch would
// also feed the unbounded monitor.
type solo struct {
	cells   *monitor.Cells
	tab     *workerTable
	join    func(slot int, ev Event)
	leave   func(slot int, ev Event)
	rescore func(slot int, ev Event)
}

func newSolo(tb testing.TB, schema *dataset.Schema, attr string) *solo {
	tb.Helper()
	cells, err := monitor.NewCells(schema, []string{attr})
	if err != nil {
		tb.Fatal(err)
	}
	return &solo{cells: cells, tab: newWorkerTable()}
}

func (s *solo) apply(ev Event) error {
	slot, on := s.tab.lookup(ev.Worker)
	switch {
	case ev.Type == EventJoin && on:
		return fmt.Errorf("worker %q already present", ev.Worker)
	case ev.Type == EventJoin:
		cell, err := s.cells.Cell(ev.Protected)
		if err != nil {
			return err
		}
		s.join(s.tab.add(ev.Worker, cell), ev)
	case !on:
		return fmt.Errorf("unknown worker %q", ev.Worker)
	case ev.Type == EventLeave:
		s.leave(slot, ev)
		s.tab.remove(ev.Worker, slot)
	default:
		s.rescore(slot, ev)
	}
	return nil
}

func (s *solo) joinID(id string, prot map[string]any, score float64) error {
	return s.apply(Event{Type: EventJoin, Worker: id, Protected: prot, Score: score})
}

// soloTotal feeds an unbounded monitor of 10 bins over schema's attr.
func soloTotal(tb testing.TB, schema *dataset.Schema, attr string) *solo {
	s := newSolo(tb, schema, attr)
	m, err := monitor.NewWithCells(s.cells, 10, 0)
	if err != nil {
		tb.Fatal(err)
	}
	s.join = func(slot int, ev Event) { m.JoinCell(&s.tab.rows[slot].total, s.tab.rows[slot].cell, ev.Score, 1) }
	s.leave = func(slot int, _ Event) { m.LeaveWorker(&s.tab.rows[slot].total, 1) }
	s.rescore = func(slot int, ev Event) { m.RescoreWorker(&s.tab.rows[slot].total, 1, ev.Score, 1) }
	return s
}

// soloWindow feeds a window of 10 bins over schema's attr.
func soloWindow(tb testing.TB, schema *dataset.Schema, attr string, capacity int) *solo {
	s := newSolo(tb, schema, attr)
	w, err := newWindow(s.cells, s.tab, 10, capacity)
	if err != nil {
		tb.Fatal(err)
	}
	s.join = func(slot int, ev Event) { w.join(slot, ev.Worker, ev.Protected, ev.Score) }
	s.leave = func(slot int, ev Event) { w.leave(slot, ev.Worker) }
	s.rescore = func(slot int, ev Event) { w.rescore(slot, ev.Worker, ev.Score) }
	return s
}

// soloDecay feeds a decay of 10 bins over schema's attr.
func soloDecay(tb testing.TB, schema *dataset.Schema, attr string, halfLife float64) (*solo, *Decay) {
	s := newSolo(tb, schema, attr)
	d, err := newDecay(s.cells, s.tab, 10, halfLife)
	if err != nil {
		tb.Fatal(err)
	}
	s.join = func(slot int, ev Event) { d.join(slot, ev.Score) }
	s.leave = func(slot int, _ Event) { d.leave(slot) }
	s.rescore = func(slot int, ev Event) { d.rescore(slot, ev.Score) }
	return s, d
}

// BenchmarkDriftPerEvent compares the per-event cost of the sliding
// window against the raw unbounded monitor on the same steady-state
// stream, each fed alone through the watch's worker-table path — the
// drift-window gate of `make gates` holds the window within 2×: an
// admission is one monitor delta op, and only retractions of still-open
// spans pay a second one.
func BenchmarkDriftPerEvent(b *testing.B) {
	prelude, cycle := benchStream(64)
	run := func(b *testing.B, s *solo, warm int) {
		seedAnchors(b, s.joinID)
		for _, ev := range prelude {
			if err := s.apply(ev); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < warm*len(cycle); i++ {
			if err := s.apply(cycle[i%len(cycle)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.apply(cycle[i%len(cycle)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("estimator=unbounded", func(b *testing.B) {
		run(b, soloTotal(b, streamSchema(), "G"), 2) // warm maps before measuring
	})
	b.Run("estimator=window", func(b *testing.B) {
		run(b, soloWindow(b, streamSchema(), "G", 96), 4) // reach capacity and ring steady state
	})
}

// BenchmarkDriftAlarm measures what rule evaluation adds to a watch's
// event path: the same estimators with zero rules vs the full three-rule
// set (none of which transition, the steady-state case). The drift-alarm
// gate of `make gates` holds the overhead within 5%. The arms run in ABBA
// order, so each pairing of an off run with an on run is adjacent in time
// and each arm runs first as often as second: an advantage for whichever
// arm runs second cancels instead of biasing the ratio.
func BenchmarkDriftAlarm(b *testing.B) {
	prelude, cycle := benchStream(64)
	run := func(b *testing.B, rules []RuleSpec) {
		w, err := NewWatch(streamSchema(), Spec{
			ID: "bench", Dataset: "bench", Attributes: []string{"G"},
			Weights: map[string]float64{"Score": 1},
			Window:  96, Rules: rules,
		})
		if err != nil {
			b.Fatal(err)
		}
		seedAnchors(b, func(id string, prot map[string]any, score float64) error {
			_, err := w.Apply(Event{Type: EventJoin, Worker: id, Protected: prot, Score: score})
			return err
		})
		for _, ev := range prelude {
			if _, err := w.Apply(ev); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 4*len(cycle); i++ {
			if _, err := w.Apply(cycle[i%len(cycle)]); err != nil {
				b.Fatal(err)
			}
		}
		w.SealBaseline()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Apply(cycle[i%len(cycle)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	off := func(b *testing.B) { run(b, nil) }
	on := func(b *testing.B) {
		run(b, []RuleSpec{
			// Limits far above any reachable signal: the steady state is
			// "armed but silent", which is what production watches do
			// almost all of the time.
			{Name: "hard", Type: RuleThreshold, Threshold: 10, Hysteresis: 0.1},
			{Name: "slope", Type: RuleDelta, Delta: 10, Lookback: 64, Hysteresis: 0.1},
			{Name: "drift", Type: RuleBaseline, Delta: 10, Hysteresis: 0.1, Cooldown: 10},
		})
	}
	b.Run("order=ab/alarms=off", off)
	b.Run("order=ab/alarms=on", on)
	b.Run("order=ba/alarms=on", on)
	b.Run("order=ba/alarms=off", off)
}

// TestWorkerRowSize pins the worker table's row, one per worker on the
// platform, at 72 bytes on 64-bit hosts: the cell, a state in each of the
// three monitors, the decay's observation weight (the only one that is not
// 1) and the window's tail.
func TestWorkerRowSize(t *testing.T) {
	if size := unsafe.Sizeof(worker{}); size > 72 {
		t.Fatalf("worker row is %d bytes, want at most 72", size)
	}
}

// TestWatchSteadyStateAllocs extends the zero-alloc gate to a whole watch:
// a window, a half-life short enough to rescale the decay's weights every
// ~1,330 events, and the standard three-rule set armed but silent, one of
// its rules reading the decay. Once warm, feeding events through Apply
// must not allocate.
func TestWatchSteadyStateAllocs(t *testing.T) {
	prelude, cycle := benchStream(64)
	w, err := NewWatch(streamSchema(), Spec{
		ID: "allocs", Dataset: "allocs", Attributes: []string{"G"},
		Weights: map[string]float64{"Score": 1},
		Window:  96, HalfLife: 2,
		Rules: []RuleSpec{
			{Name: "hard", Type: RuleThreshold, Threshold: 10, Hysteresis: 0.1},
			{Name: "slope", Type: RuleDelta, Delta: 10, Lookback: 64, Hysteresis: 0.1},
			{Name: "drift", Type: RuleBaseline, Source: SourceDecay, Delta: 10, Hysteresis: 0.1, Cooldown: 10},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	apply := func(ev Event) {
		if alarms, err := w.Apply(ev); err != nil || len(alarms) != 0 {
			t.Fatalf("apply %+v: %v, %d transitions", ev, err, len(alarms))
		}
	}
	seedAnchors(t, func(id string, prot map[string]any, score float64) error {
		apply(Event{Type: EventJoin, Worker: id, Protected: prot, Score: score})
		return nil
	})
	for _, ev := range prelude {
		apply(ev)
	}
	for i := 0; i < 4*len(cycle); i++ {
		apply(cycle[i%len(cycle)])
	}
	w.SealBaseline()
	weight, rescales := w.decay.weight, 0
	i := 0
	avg := testing.AllocsPerRun(5, func() {
		for range cycle {
			apply(cycle[i%len(cycle)])
			i++
			if w.decay.weight < weight {
				rescales++
			}
			weight = w.decay.weight
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state watch path allocates: %v allocs per %d-event cycle", avg, len(cycle))
	}
	if rescales == 0 {
		t.Fatal("no decay rescale happened while allocations were counted")
	}
}

// decaySchema induces exactly k groups through one categorical attribute.
func decaySchema(k int) *dataset.Schema {
	vals := make([]string, k)
	for i := range vals {
		vals[i] = fmt.Sprintf("g%02d", i)
	}
	return &dataset.Schema{
		Protected: []dataset.Attribute{dataset.Cat("Group", vals...)},
		Observed:  []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
}

// BenchmarkDecayEvent is BenchmarkMonitorEvent for the half-life
// estimator: one steady-state re-score followed by an Unfairness read,
// across group counts, over eight workers a group. The decay is fed alone
// through the watch's worker-table path.
func BenchmarkDecayEvent(b *testing.B) {
	for _, k := range []int{4, 8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("groups=%d", k), func(b *testing.B) {
			s, d := soloDecay(b, decaySchema(k), "Group", 1024)
			r := rng.New(uint64(k))
			var ids []string
			for g := 0; g < k; g++ {
				for w := 0; w < 8; w++ {
					id := fmt.Sprintf("w%d-%d", g, w)
					if err := s.joinID(id, map[string]any{"Group": fmt.Sprintf("g%02d", g)}, r.Float64()); err != nil {
						b.Fatal(err)
					}
					ids = append(ids, id)
				}
			}
			r = rng.New(99)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.apply(Event{Type: EventRescore, Worker: ids[i%len(ids)], Score: r.Float64()}); err != nil {
					b.Fatal(err)
				}
				if u := d.Unfairness(); u < 0 {
					b.Fatal("negative unfairness")
				}
			}
		})
	}
}
