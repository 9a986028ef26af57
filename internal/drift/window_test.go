package drift

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestWindowRegistryTracksLivePopulation churns a constant live
// population through 100k join/leave cycles, most of them after the
// worker's span aged out of a small window. The worker table must hold
// exactly the live workers in as many rows, every ring Join must share one
// attribute map per cell, and the windowed state must still replay
// bit-identically.
func TestWindowRegistryTracksLivePopulation(t *testing.T) {
	const live, cycles = 64, 100_000
	w, err := NewWindow(streamSchema(), []string{"G"}, 10, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh maps per event, as decoded JSON events arrive: the window must
	// not keep one per worker.
	attrs := func(i int) map[string]any { return map[string]any{"G": fmt.Sprintf("g%d", i%streamGroups)} }
	ids := make([]string, live)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%d", i)
		if err := w.Join(ids[i], attrs(i), float64(i%10)/10); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < cycles; c++ {
		slot := c % live
		if err := w.Leave(ids[slot]); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		ids[slot] = fmt.Sprintf("w%d", live+c)
		if err := w.Join(ids[slot], attrs(c), float64(c%97)/97); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if c%7 == 0 {
			if err := w.Rescore(ids[(slot+live/2)%live], float64(c%13)/13); err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
		}
	}
	if len(w.tab.slots) != live || len(w.tab.rows) != live {
		t.Fatalf("worker table holds %d entries in %d rows for %d live workers", len(w.tab.slots), len(w.tab.rows), live)
	}
	for _, id := range ids {
		if _, ok := w.tab.lookup(id); !ok {
			t.Fatalf("live worker %q missing from the worker table", id)
		}
	}
	records := map[uintptr]bool{}
	for _, ev := range w.Contents() {
		if ev.Type == EventJoin {
			records[reflect.ValueOf(ev.Protected).Pointer()] = true
		}
	}
	if len(records) > streamGroups || len(w.cellAttrs) > streamGroups {
		t.Fatalf("%d distinct attribute maps, %d cell records for %d cells", len(records), len(w.cellAttrs), streamGroups)
	}
	ref := replayContents(t, w)
	got, want := w.Unfairness(), ref.Unfairness()
	if got != want || w.Workers() != ref.Workers() {
		t.Fatalf("window %v/%d workers != replay %v/%d", got, w.Workers(), want, ref.Workers())
	}
}

// TestWindowForgetsDepartedWorkers pins that a standalone window treats a
// departed worker as unknown, whether its span was still in the window
// when it left or had already aged out: a Rescore must not re-admit it,
// and a second Leave is an error.
func TestWindowForgetsDepartedWorkers(t *testing.T) {
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
	wantUnknown := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "unknown worker") {
			t.Fatalf("%s: got %v, want an unknown-worker error", what, err)
		}
	}
	must(w.Join("a", groupAttrMaps[0], 0.1))
	must(w.Leave("a")) // a's span is live: an effective leave
	wantUnknown("rescore after live leave", w.Rescore("a", 0.5))
	wantUnknown("leave after live leave", w.Leave("a"))

	must(w.Join("b", groupAttrMaps[1], 0.2))
	must(w.Join("c", groupAttrMaps[2], 0.3))
	must(w.Join("d", groupAttrMaps[3], 0.4)) // b's span ages out
	if err := w.Join("b", groupAttrMaps[1], 0.9); err == nil {
		t.Fatal("duplicate join of an aged-out worker accepted")
	}
	must(w.Leave("b")) // aged out: admits nothing
	wantUnknown("rescore after aged-out leave", w.Rescore("b", 0.5))
	wantUnknown("leave after aged-out leave", w.Leave("b"))

	// A departed worker may come back as a new arrival.
	must(w.Join("a", groupAttrMaps[0], 0.6))
	must(w.Rescore("a", 0.7))
	if len(w.tab.slots) != 3 {
		t.Fatalf("worker table holds %d entries, want c, d and a", len(w.tab.slots))
	}
}
