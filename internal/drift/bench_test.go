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

func applyWindowEvent(w *Window, ev Event) error {
	switch ev.Type {
	case EventJoin:
		return w.Join(ev.Worker, ev.Protected, ev.Score)
	case EventLeave:
		return w.Leave(ev.Worker)
	default:
		return w.Rescore(ev.Worker, ev.Score)
	}
}

// BenchmarkDriftPerEvent compares the per-event cost of the sliding
// window against the raw unbounded monitor on the same steady-state
// stream — the drift-window gate of `make gates` holds the window within
// 2×: an admission is one monitor delta op, and only retractions of
// still-open spans pay a second one.
func BenchmarkDriftPerEvent(b *testing.B) {
	prelude, cycle := benchStream(64)
	b.Run("estimator=unbounded", func(b *testing.B) {
		m, err := monitor.New(streamSchema(), []string{"G"}, 10, 0)
		if err != nil {
			b.Fatal(err)
		}
		seedAnchors(b, m.Join)
		apply := func(ev Event) error {
			switch ev.Type {
			case EventJoin:
				return m.Join(ev.Worker, ev.Protected, ev.Score)
			case EventLeave:
				return m.Leave(ev.Worker)
			default:
				return m.Rescore(ev.Worker, ev.Score)
			}
		}
		for _, ev := range prelude {
			if err := apply(ev); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 2*len(cycle); i++ { // warm maps before measuring
			if err := apply(cycle[i%len(cycle)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := apply(cycle[i%len(cycle)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("estimator=window", func(b *testing.B) {
		w, err := NewWindow(streamSchema(), []string{"G"}, 10, 96)
		if err != nil {
			b.Fatal(err)
		}
		seedAnchors(b, w.Join)
		for _, ev := range prelude {
			if err := applyWindowEvent(w, ev); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < 4*len(cycle); i++ { // reach capacity and ring steady state
			if err := applyWindowEvent(w, cycle[i%len(cycle)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := applyWindowEvent(w, cycle[i%len(cycle)]); err != nil {
				b.Fatal(err)
			}
		}
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

// TestWindowSteadyStateAllocs is the zero-alloc gate: once the window is
// at capacity over a stable population and group set, feeding events must
// not allocate — the ring, the key scratch, the worker maps and the
// monitor's delta path are all reused storage.
func TestWindowSteadyStateAllocs(t *testing.T) {
	prelude, cycle := benchStream(64)
	w, err := NewWindow(streamSchema(), []string{"G"}, 10, 96)
	if err != nil {
		t.Fatal(err)
	}
	seedAnchors(t, w.Join)
	for _, ev := range prelude {
		if err := applyWindowEvent(w, ev); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*len(cycle); i++ {
		if err := applyWindowEvent(w, cycle[i%len(cycle)]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(5, func() {
		for range cycle {
			if err := applyWindowEvent(w, cycle[i%len(cycle)]); err != nil {
				t.Fatal(err)
			}
			i++
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state window path allocates: %v allocs per %d-event cycle", avg, len(cycle))
	}
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
// across group counts, over eight workers a group. It uses only the
// estimator's exported API.
func BenchmarkDecayEvent(b *testing.B) {
	for _, k := range []int{4, 8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("groups=%d", k), func(b *testing.B) {
			d, err := NewDecay(decaySchema(k), []string{"Group"}, 10, 1024)
			if err != nil {
				b.Fatal(err)
			}
			r := rng.New(uint64(k))
			var ids []string
			for g := 0; g < k; g++ {
				for w := 0; w < 8; w++ {
					id := fmt.Sprintf("w%d-%d", g, w)
					if err := d.Join(id, map[string]any{"Group": fmt.Sprintf("g%02d", g)}, r.Float64()); err != nil {
						b.Fatal(err)
					}
					ids = append(ids, id)
				}
			}
			r = rng.New(99)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Rescore(ids[i%len(ids)], r.Float64()); err != nil {
					b.Fatal(err)
				}
				if u := d.Unfairness(); u < 0 {
					b.Fatal("negative unfairness")
				}
			}
		})
	}
}
