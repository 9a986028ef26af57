package drift

import (
	"fmt"
	"math"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/monitor"
	"fairrank/internal/testkit"
)

const streamGroups = 4

func streamSchema() *dataset.Schema {
	return &dataset.Schema{
		Protected: []dataset.Attribute{dataset.Cat("G", "g0", "g1", "g2", "g3")},
		Observed:  []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
}

// groupAttrMaps are shared per-group attribute maps: the window keeps
// references to them, and reusing one map per group mirrors how a real
// ingest path would intern attribute rows.
var groupAttrMaps = func() []map[string]any {
	out := make([]map[string]any, streamGroups)
	for g := range out {
		out[g] = map[string]any{"G": fmt.Sprintf("g%d", g)}
	}
	return out
}()

// streamWatch returns a rule-free watch over streamSchema's groups with
// the given window capacity and half-life (0 for none).
func streamWatch(t *testing.T, window int, halfLife float64) *Watch {
	t.Helper()
	w, err := NewWatch(streamSchema(), Spec{ID: "stream", Dataset: "stream", Attributes: []string{"G"},
		Weights: map[string]float64{"Score": 1}, Bins: 10, Window: window, HalfLife: halfLife})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// kitEvent is the wire event of a testkit stream event, its attributes
// the group's shared map.
func kitEvent(ev testkit.Event) Event {
	switch ev.Kind {
	case testkit.EventJoin:
		return Event{Type: EventJoin, Worker: ev.ID, Protected: groupAttrMaps[ev.Group], Score: ev.Score}
	case testkit.EventLeave:
		return Event{Type: EventLeave, Worker: ev.ID}
	}
	return Event{Type: EventRescore, Worker: ev.ID, Score: ev.Score}
}

func applyKit(t *testing.T, w *Watch, ev testkit.Event) {
	t.Helper()
	if _, err := w.Apply(kitEvent(ev)); err != nil {
		t.Fatalf("apply %+v: %v", ev, err)
	}
}

// replayContents rebuilds a fresh monitor from the window's live contents
// — the definitionally correct windowed state.
func replayContents(t *testing.T, w *Window) *monitor.Monitor {
	t.Helper()
	m, err := monitor.New(streamSchema(), []string{"G"}, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range w.Contents() {
		switch ev.Type {
		case EventJoin:
			err = m.Join(ev.Worker, ev.Protected, ev.Score)
		case EventLeave:
			err = m.Leave(ev.Worker)
		case EventRescore:
			err = m.Rescore(ev.Worker, ev.Score)
		}
		if err != nil {
			t.Fatalf("replay %+v: %v", ev, err)
		}
	}
	return m
}

// TestWindowBitIdenticalToReplay is the window's differential gate:
// across random valid streams and window capacities, the incrementally
// maintained windowed state of a watch must agree bit-for-bit with a
// from-scratch monitor.New + replay over the window's contents — same
// unfairness (the sum-tree reduction is a pure function of the leaf count
// and values), same population, same group count.
func TestWindowBitIdenticalToReplay(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		g := testkit.NewGen(seed)
		n := g.R.IntRange(20, 300)
		capacity := g.R.IntRange(3, 80)
		events := g.Events(streamGroups, n)
		watch := streamWatch(t, capacity, 0)
		w := watch.window
		for i, ev := range events {
			applyKit(t, watch, ev)
			if i%17 != 16 && i != len(events)-1 {
				continue
			}
			ref := replayContents(t, w)
			if inc, want := w.Unfairness(), ref.Unfairness(); inc != want {
				t.Fatalf("seed %d cap %d event %d: window %v != replay %v",
					seed, capacity, i, inc, want)
			}
			if w.Workers() != ref.Workers() || w.Groups() != ref.Groups() {
				t.Fatalf("seed %d cap %d event %d: population %d/%d != replay %d/%d",
					seed, capacity, i, w.Workers(), w.Groups(), ref.Workers(), ref.Groups())
			}
			if w.Live() > capacity {
				t.Fatalf("seed %d event %d: live %d exceeds capacity %d", seed, i, w.Live(), capacity)
			}
		}
	}
}

// TestWholeStreamWindowEqualsUnbounded is the metamorphic identity: a
// window large enough to cover the whole stream never retracts, so its
// estimate must equal the unbounded monitor's bit-for-bit at every
// checkpoint.
func TestWholeStreamWindowEqualsUnbounded(t *testing.T) {
	for seed := uint64(1); seed <= 15; seed++ {
		g := testkit.NewGen(seed)
		n := g.R.IntRange(10, 200)
		events := g.Events(streamGroups, n)
		watch := streamWatch(t, n+1, 0)
		w := watch.window
		m, err := monitor.New(streamSchema(), []string{"G"}, 10, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range events {
			applyKit(t, watch, ev)
			var merr error
			switch ev.Kind {
			case testkit.EventJoin:
				merr = m.Join(ev.ID, groupAttrMaps[ev.Group], ev.Score)
			case testkit.EventLeave:
				merr = m.Leave(ev.ID)
			case testkit.EventRescore:
				merr = m.Rescore(ev.ID, ev.Score)
			}
			if merr != nil {
				t.Fatalf("seed %d event %d: %v", seed, i, merr)
			}
			if a, b := w.Unfairness(), m.Unfairness(); a != b {
				t.Fatalf("seed %d event %d: whole-stream window %v != unbounded %v", seed, i, a, b)
			}
		}
		if w.Retractions() != 0 {
			t.Fatalf("seed %d: whole-stream window retracted %d times", seed, w.Retractions())
		}
	}
}

// TestDecayMatchesOracle pins the growing-scale decay estimator against
// the literal-math oracle — textbook 2^((t−T)/halfLife) weights computed
// by replaying the stream — within a float tolerance (the two use
// different weight scales and summation orders, so bit-identity is not
// the contract here).
func TestDecayMatchesOracle(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		g := testkit.NewGen(seed)
		n := g.R.IntRange(10, 300)
		halfLife := g.R.FloatRange(5, 200)
		events := g.Events(streamGroups, n)
		watch := streamWatch(t, 0, halfLife)
		d := watch.decay
		for i, ev := range events {
			applyKit(t, watch, ev)
			if i%23 != 22 && i != len(events)-1 {
				continue
			}
			var o testkit.Oracle
			want := o.DecayUnfairness(events[:i+1], streamGroups, 10, halfLife)
			got := d.Unfairness()
			if math.Abs(got-want) > 1e-8 {
				t.Fatalf("seed %d event %d halfLife %.1f: decay %v, oracle %v",
					seed, i, halfLife, got, want)
			}
		}
	}
}

// TestDecayIncrementalMatchesRecompute pins the decay estimator bit for
// bit against its monitor's from-scratch Recompute after every event,
// across group births and deaths and the weight rescales a 1.5-event
// half-life forces every ~1000 events.
func TestDecayIncrementalMatchesRecompute(t *testing.T) {
	rescales := 0
	for seed := uint64(1); seed <= 12; seed++ {
		events := testkit.NewGen(seed).Events(streamGroups, 2500)
		watch := streamWatch(t, 0, 1.5)
		d := watch.decay
		for i, ev := range events {
			weight := d.weight
			applyKit(t, watch, ev)
			if d.weight < weight {
				rescales++
			}
			if got, want := d.Unfairness(), d.mon.Recompute(); got != want {
				t.Fatalf("seed %d event %d: incremental %v != recompute %v", seed, i, got, want)
			}
		}
	}
	if rescales < 12 {
		t.Fatalf("only %d weight rescales across the streams", rescales)
	}
}

// TestDecayBinsLikeMonitor: the decay estimator puts every score k/10⁶ in
// the bin the monitor does (histogram.BinIndex over [0, 1], which divides
// by the bin width), at 10 and 100 bins. Flooring score·bins instead moves
// 0.3, 0.6 and 0.7 up a bin at 10 bins, and 0.47, 0.59 and 0.94 at 100.
// Each side holds one worker at score 0 and one rescored to the score, so
// each group's PMF is one bin and the estimate is that bin's distance from
// bin 0: equal estimates are equal bins. The decay's anchor is re-made
// with every score, so rescales never decay its mass away.
func TestDecayBinsLikeMonitor(t *testing.T) {
	for _, bins := range []int{10, 100} {
		watch, err := NewWatch(streamSchema(), Spec{ID: "bins", Dataset: "bins", Attributes: []string{"G"},
			Weights: map[string]float64{"Score": 1}, Bins: bins, HalfLife: 10})
		if err != nil {
			t.Fatal(err)
		}
		d := watch.decay
		m, err := monitor.New(streamSchema(), []string{"G"}, bins, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"anchor", "w"} {
			prot := groupAttrMaps[0]
			if id == "anchor" {
				prot = groupAttrMaps[1]
			}
			if _, err := watch.Apply(Event{Type: EventJoin, Worker: id, Protected: prot}); err != nil {
				t.Fatal(err)
			}
			if err := m.Join(id, prot, 0); err != nil {
				t.Fatal(err)
			}
		}
		anchor, _ := watch.tab.lookup("anchor")
		slot, _ := watch.tab.lookup("w")
		for k := 0; k <= 1_000_000; k++ {
			score := float64(k) / 1e6
			d.rescore(anchor, 0)
			d.rescore(slot, score)
			if err := m.Rescore("w", score); err != nil {
				t.Fatal(err)
			}
			if got, want := d.Unfairness(), m.Unfairness(); got != want {
				t.Fatalf("%d bins, score %v: decay estimate %v, monitor %v", bins, score, got, want)
			}
		}
	}
}

// TestWindowAgedOutSemantics pins the stream normalization rules one by
// one: an aged-out worker's Rescore re-enters it as a Join, its Leave
// admits nothing, and a retracted Join tombstones its whole span.
func TestWindowAgedOutSemantics(t *testing.T) {
	watch := streamWatch(t, 2, 0)
	w := watch.window
	join, leave, rescore := watchEvents(t, watch)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(join("a", groupAttrMaps[0], 0.1))
	must(join("b", groupAttrMaps[1], 0.2))
	must(join("c", groupAttrMaps[2], 0.3)) // retracts a's span
	if w.Workers() != 2 {
		t.Fatalf("after retraction: %d workers, want 2", w.Workers())
	}
	// a is off the window but still on the platform: its rescore re-joins.
	must(rescore("a", 0.5)) // retracts b's span
	if w.Workers() != 2 {
		t.Fatalf("after rescore re-admission: %d workers, want 2", w.Workers())
	}
	// b's span aged out: its leave admits nothing and changes nothing.
	live := w.Live()
	must(leave("b"))
	if w.Live() != live || w.Workers() != 2 {
		t.Fatalf("aged-out leave mutated the window: live %d→%d workers %d",
			live, w.Live(), w.Workers())
	}
	// A worker never seen at all is still an error.
	if err := leave("ghost"); err == nil {
		t.Fatal("leave of unknown worker succeeded")
	}
	if err := rescore("ghost", 0.4); err == nil {
		t.Fatal("rescore of unknown worker succeeded")
	}
	// A live leave closes the span: retracting its Join later must not
	// double-remove the worker.
	must(leave("c"))                       // c live → effective leave admitted
	must(join("d", groupAttrMaps[3], 0.7)) // forces retractions
	must(join("e", groupAttrMaps[0], 0.9))
	ref := replayContents(t, w)
	if w.Workers() != ref.Workers() {
		t.Fatalf("population %d != replay %d", w.Workers(), ref.Workers())
	}
	if a, b := w.Unfairness(), ref.Unfairness(); a != b {
		t.Fatalf("window %v != replay %v", a, b)
	}
}

// watchEvents returns w's event path as join, leave and rescore calls by
// worker id.
func watchEvents(t *testing.T, w *Watch) (join func(string, map[string]any, float64) error, leave func(string) error, rescore func(string, float64) error) {
	apply := func(ev Event) error {
		_, err := w.Apply(ev)
		return err
	}
	join = func(id string, prot map[string]any, score float64) error {
		return apply(Event{Type: EventJoin, Worker: id, Protected: prot, Score: score})
	}
	leave = func(id string) error { return apply(Event{Type: EventLeave, Worker: id}) }
	rescore = func(id string, score float64) error {
		return apply(Event{Type: EventRescore, Worker: id, Score: score})
	}
	return join, leave, rescore
}
