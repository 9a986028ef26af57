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

func applyToWindow(t *testing.T, w *Window, ev testkit.Event) {
	t.Helper()
	var err error
	switch ev.Kind {
	case testkit.EventJoin:
		err = w.Join(ev.ID, groupAttrMaps[ev.Group], ev.Score)
	case testkit.EventLeave:
		err = w.Leave(ev.ID)
	case testkit.EventRescore:
		err = w.Rescore(ev.ID, ev.Score)
	}
	if err != nil {
		t.Fatalf("window apply %+v: %v", ev, err)
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
// maintained windowed state must agree bit-for-bit with a from-scratch
// monitor.New + replay over the window's contents — same unfairness (the
// sum-tree reduction is a pure function of the leaf count and values),
// same population, same group count.
func TestWindowBitIdenticalToReplay(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		g := testkit.NewGen(seed)
		n := g.R.IntRange(20, 300)
		capacity := g.R.IntRange(3, 80)
		events := g.Events(streamGroups, n)
		w, err := NewWindow(streamSchema(), []string{"G"}, 10, capacity)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range events {
			applyToWindow(t, w, ev)
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
		w, err := NewWindow(streamSchema(), []string{"G"}, 10, n+1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := monitor.New(streamSchema(), []string{"G"}, 10, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range events {
			applyToWindow(t, w, ev)
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
		d, err := NewDecay(streamSchema(), []string{"G"}, 10, halfLife)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range events {
			switch ev.Kind {
			case testkit.EventJoin:
				err = d.Join(ev.ID, groupAttrMaps[ev.Group], ev.Score)
			case testkit.EventLeave:
				err = d.Leave(ev.ID)
			case testkit.EventRescore:
				err = d.Rescore(ev.ID, ev.Score)
			}
			if err != nil {
				t.Fatalf("seed %d event %d: %v", seed, i, err)
			}
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
		d, err := NewDecay(streamSchema(), []string{"G"}, 10, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		for i, ev := range events {
			weight := d.weight
			switch ev.Kind {
			case testkit.EventJoin:
				err = d.Join(ev.ID, groupAttrMaps[ev.Group], ev.Score)
			case testkit.EventLeave:
				err = d.Leave(ev.ID)
			case testkit.EventRescore:
				err = d.Rescore(ev.ID, ev.Score)
			}
			if err != nil {
				t.Fatalf("seed %d event %d: %v", seed, i, err)
			}
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
		d, err := NewDecay(streamSchema(), []string{"G"}, bins, 10)
		if err != nil {
			t.Fatal(err)
		}
		m, err := monitor.New(streamSchema(), []string{"G"}, bins, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, join := range []func(string, map[string]any, float64) error{d.Join, m.Join} {
			if err := join("anchor", groupAttrMaps[1], 0); err != nil {
				t.Fatal(err)
			}
			if err := join("w", groupAttrMaps[0], 0); err != nil {
				t.Fatal(err)
			}
		}
		anchor, _ := d.tab.lookup("anchor")
		slot, _ := d.tab.lookup("w")
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
	w, err := NewWindow(streamSchema(), []string{"G"}, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.Join("a", groupAttrMaps[0], 0.1))
	must(w.Join("b", groupAttrMaps[1], 0.2))
	must(w.Join("c", groupAttrMaps[2], 0.3)) // retracts a's span
	if w.Workers() != 2 {
		t.Fatalf("after retraction: %d workers, want 2", w.Workers())
	}
	// a is off the window but still on the platform: its rescore re-joins.
	must(w.Rescore("a", 0.5)) // retracts b's span
	if w.Workers() != 2 {
		t.Fatalf("after rescore re-admission: %d workers, want 2", w.Workers())
	}
	// b's span aged out: its leave admits nothing and changes nothing.
	live := w.Live()
	must(w.Leave("b"))
	if w.Live() != live || w.Workers() != 2 {
		t.Fatalf("aged-out leave mutated the window: live %d→%d workers %d",
			live, w.Live(), w.Workers())
	}
	// A worker never seen at all is still an error.
	if err := w.Leave("ghost"); err == nil {
		t.Fatal("leave of unknown worker succeeded")
	}
	if err := w.Rescore("ghost", 0.4); err == nil {
		t.Fatal("rescore of unknown worker succeeded")
	}
	// A live leave closes the span: retracting its Join later must not
	// double-remove the worker.
	must(w.Leave("c"))                       // c live → effective leave admitted
	must(w.Join("d", groupAttrMaps[3], 0.7)) // forces retractions
	must(w.Join("e", groupAttrMaps[0], 0.9))
	ref := replayContents(t, w)
	if w.Workers() != ref.Workers() {
		t.Fatalf("population %d != replay %d", w.Workers(), ref.Workers())
	}
	if a, b := w.Unfairness(), ref.Unfairness(); a != b {
		t.Fatalf("window %v != replay %v", a, b)
	}
}
