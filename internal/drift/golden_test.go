package drift

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fairrank/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_stream.txt from the current code")

const goldenPath = "testdata/golden_stream.txt"

// goldenSpec exercises every estimator and rule kind with small enough
// parameters that a few thousand events cover window retractions,
// re-admissions of aged-out workers and decay rescales: with a half-life
// of 2.5 events the observation weight passes rescaleAbove every ~1660
// events.
func goldenSpec() Spec {
	return Spec{
		ID: "golden", Dataset: "golden", Attributes: []string{"G"},
		Weights: map[string]float64{"Score": 1}, Bins: 10,
		Window: 24, HalfLife: 2.5,
		Rules: []RuleSpec{
			{Name: "hard", Type: RuleThreshold, Threshold: 0.3, Hysteresis: 0.2, Cooldown: 5},
			{Name: "slope", Type: RuleDelta, Source: SourceDecay, Delta: 0.1, Lookback: 16, Hysteresis: 0.3},
			{Name: "drift", Type: RuleBaseline, Source: SourceTotal, Delta: 0.05, Hysteresis: 0.25, Warmup: 10},
		},
	}
}

// goldenStream is a seeded event stream over streamSchema's four groups.
// Beside valid joins, leaves and rescores (of live workers, most of them
// long aged out of the 24-event window) it carries duplicate joins,
// events for unknown and departed workers, joins with bad attributes and
// shape errors Validate rejects. Group g3 is only joined in alternate
// 300-event phases and purged at each phase end, so it is repeatedly
// born and killed; g1's scores drift on a slow cycle so the alarm rules
// fire and clear.
func goldenStream(n int) []Event {
	r := rng.New(20181)
	var live, gone []string
	next := 0
	groupOf := map[string]int{}
	remove := func(j int) string {
		id := live[j]
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
		gone = append(gone, id)
		return id
	}
	out := make([]Event, 0, n)
	for i := 0; len(out) < n; i++ {
		g3Phase := (i/300)%2 == 1
		if !g3Phase && i%300 == 0 {
			for j := len(live) - 1; j >= 0; j-- {
				if groupOf[live[j]] == 3 {
					out = append(out, Event{Type: EventLeave, Worker: remove(j)})
				}
			}
		}
		score := func(g int) float64 {
			s := r.Float64()
			if g == 1 {
				s *= 0.55 + 0.45*math.Cos(float64(i)/180)
			}
			return s
		}
		join := func() Event {
			g := r.Intn(3)
			if g3Phase && r.Intn(4) == 0 {
				g = 3
			}
			id := fmt.Sprintf("w%d", next)
			next++
			live = append(live, id)
			groupOf[id] = g
			return Event{Type: EventJoin, Worker: id, Protected: map[string]any{"G": fmt.Sprintf("g%d", g)}, Score: score(g)}
		}
		switch k := r.Intn(100); {
		case k < 38 || len(live) < 8:
			out = append(out, join())
		case k < 64:
			id := live[r.Intn(len(live))]
			out = append(out, Event{Type: EventRescore, Worker: id, Score: score(groupOf[id])})
		case k < 88:
			out = append(out, Event{Type: EventLeave, Worker: remove(r.Intn(len(live)))})
		case k < 91:
			id := live[r.Intn(len(live))]
			out = append(out, Event{Type: EventJoin, Worker: id, Protected: map[string]any{"G": "g0"}, Score: 0.5})
		case k < 93:
			out = append(out, Event{Type: rng.Pick(r, []string{EventLeave, EventRescore}), Worker: fmt.Sprintf("ghost%d", i), Score: 0.5})
		case k < 95 && len(gone) > 0:
			out = append(out, Event{Type: rng.Pick(r, []string{EventLeave, EventRescore}), Worker: gone[r.Intn(len(gone))], Score: 0.5})
		case k < 97:
			bad := rng.Pick(r, []map[string]any{{"G": "g9"}, {"H": "g0"}, {"G": 3.0}, {"G": true}})
			out = append(out, Event{Type: EventJoin, Worker: fmt.Sprintf("bad%d", i), Protected: bad, Score: 0.5})
		default:
			out = append(out, rng.Pick(r, []Event{
				{Type: EventJoin, Worker: "", Protected: map[string]any{"G": "g0"}},
				{Type: "hire", Worker: "x"},
				{Type: EventJoin, Worker: "noattrs"},
				{Type: EventRescore, Worker: "nan", Score: math.NaN()},
			}))
		}
	}
	return out[:n]
}

// goldenTranscript feeds goldenStream through Watch.Apply and records
// every rejected event's error text, every alarm transition and, every
// 40 events and at the end, the status as the HTTP surface encodes it.
// The baseline rule's level is sealed after event 200.
func goldenTranscript(t *testing.T) []byte {
	t.Helper()
	w, err := NewWatch(streamSchema(), goldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	line := func(format string, args ...any) {
		fmt.Fprintf(&buf, format+"\n", args...)
	}
	status := func(tag string) {
		raw, err := json.Marshal(w.Status())
		if err != nil {
			t.Fatal(err)
		}
		line("s %s %s", tag, raw)
	}
	for i, ev := range goldenStream(4000) {
		alarms, err := w.Apply(ev)
		if err != nil {
			line("e %d err %s", i, err)
		}
		for _, a := range alarms {
			raw, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			line("e %d alarm %s", i, raw)
		}
		if i == 200 {
			raw, err := json.Marshal(w.SealBaseline())
			if err != nil {
				t.Fatal(err)
			}
			line("b %d %s", i, raw)
		}
		if i%40 == 39 {
			status(fmt.Sprint(i))
		}
	}
	status("final")
	return buf.Bytes()
}

// TestGoldenStream pins Watch.Apply's observable behaviour byte for byte
// against a transcript recorded before the estimators shared one worker
// table: error texts, alarm transitions and periodic Status JSON (whose
// floats encode every bit of each estimate). It was regenerated once, when
// decay values came to reduce through the monitor's sum tree; only their
// last bits moved. Regenerate with -update only for an intended behaviour
// change.
func TestGoldenStream(t *testing.T) {
	got := goldenTranscript(t)
	if *updateGolden {
		if err := os.WriteFile(filepath.FromSlash(goldenPath), got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("transcript line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("transcript has %d lines, golden %d", len(gl), len(wl))
}

// TestGoldenStreamCoverage keeps the golden stream honest: it must
// actually contain every case the transcript claims to pin.
func TestGoldenStreamCoverage(t *testing.T) {
	want, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	text := string(want)
	for _, s := range []string{
		"already present", "unknown worker", "has no value", "missing attribute", "wants a string",
		"needs a worker id", "unknown event type", "needs protected attributes", "non-finite score",
		`"type":"fired"`, `"type":"cleared"`, `"rule":"hard"`, `"rule":"slope"`, `"rule":"drift"`,
	} {
		if !strings.Contains(text, s) {
			t.Errorf("golden transcript never shows %q", s)
		}
	}
	w, err := NewWatch(streamSchema(), goldenSpec())
	if err != nil {
		t.Fatal(err)
	}
	var rescales, births, deaths, readmits int
	groups := 0
	weight := w.decay.weight
	for _, ev := range goldenStream(4000) {
		aged := false
		if ev.Type == EventRescore {
			if slot, on := w.tab.lookup(ev.Worker); on && w.tab.rows[slot].tail < 0 {
				aged = true
			}
		}
		if _, err := w.Apply(ev); err != nil {
			continue
		}
		if aged {
			readmits++
		}
		if w.decay.weight < weight {
			rescales++
		}
		weight = w.decay.weight
		if g := w.total.Groups(); g > groups {
			births++
			groups = g
		} else if g < groups {
			deaths++
			groups = g
		}
	}
	if rescales < 2 || births < 5 || deaths < 3 || readmits < 100 {
		t.Fatalf("stream covers %d decay rescales, %d group births, %d deaths, %d re-admissions", rescales, births, deaths, readmits)
	}
}
