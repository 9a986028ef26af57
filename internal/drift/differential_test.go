package drift

import (
	"fmt"
	"math"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/emd"
	"fairrank/internal/histogram"
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
			inc, err := w.UnfairnessErr()
			if err != nil {
				t.Fatalf("seed %d cap %d event %d: %v", seed, capacity, i, err)
			}
			want, err := ref.UnfairnessErr()
			if err != nil {
				t.Fatalf("seed %d cap %d event %d: replay: %v", seed, capacity, i, err)
			}
			if inc != want {
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
			a, errA := w.UnfairnessErr()
			b, errB := m.UnfairnessErr()
			if errA != nil || errB != nil {
				t.Fatalf("seed %d event %d: %v / %v", seed, i, errA, errB)
			}
			if a != b {
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

// recomputeDecay is the full read Decay.Unfairness replaced: every
// group's PMF and every pairwise distance from scratch, reduced in (i, j)
// order.
func recomputeDecay(d *Decay) float64 {
	k := len(d.order)
	if k < 2 {
		return 0
	}
	pmfs := make([][]float64, k)
	for i, g := range d.order {
		total := 0.0
		for _, c := range g.bins {
			total += c
		}
		pmfs[i] = make([]float64, d.bins)
		for j, c := range g.bins {
			if total == 0 {
				pmfs[i][j] = 1 / float64(d.bins)
			} else {
				pmfs[i][j] = c / total
			}
		}
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			sum += emd.PMFDistance(pmfs[i], pmfs[j], d.unit)
		}
	}
	return sum / float64(k*(k-1)/2)
}

// TestDecayIncrementalMatchesRecompute pins the decay estimator's cached
// read bit for bit against the full recompute — after every event, or
// every second or third so several groups change between reads — across
// group births and deaths and the weight rescales a 1.5-event half-life
// forces every ~1000 events.
func TestDecayIncrementalMatchesRecompute(t *testing.T) {
	rescales := 0
	for seed := uint64(1); seed <= 12; seed++ {
		events := testkit.NewGen(seed).Events(streamGroups, 2500)
		every := 1 + int(seed%3)
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
			if i%every != 0 {
				continue
			}
			if got, want := d.Unfairness(), recomputeDecay(d); got != want {
				t.Fatalf("seed %d event %d: cached read %v != recompute %v", seed, i, got, want)
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
func TestDecayBinsLikeMonitor(t *testing.T) {
	for _, bins := range []int{10, 100} {
		d, err := NewDecay(streamSchema(), []string{"G"}, bins, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Join("w", groupAttrMaps[0], 0); err != nil {
			t.Fatal(err)
		}
		slot, _ := d.tab.lookup("w")
		grid := histogram.MustNew(bins, 0, 1)
		for k := 0; k <= 1_000_000; k++ {
			score := float64(k) / 1e6
			d.rescore(slot, score)
			if got, want := d.tab.rows[slot].decayBin, grid.BinIndex(score); got != want {
				t.Fatalf("%d bins, score %v: decay bin %d, monitor bin %d", bins, score, got, want)
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
	a, _ := w.UnfairnessErr()
	b, err := ref.UnfairnessErr()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("window %v != replay %v", a, b)
	}
}
