package drift

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestWindowRegistryTracksLivePopulation churns a constant live
// population through 100k join/leave cycles, most of them after the
// worker's span aged out of a small window. The watch's worker table must
// hold exactly the live workers in as many rows, every ring Join must
// share one attribute map per cell, and the windowed state must still
// replay bit-identically.
func TestWindowRegistryTracksLivePopulation(t *testing.T) {
	const live, cycles = 64, 100_000
	watch := streamWatch(t, 32, 0)
	w := watch.window
	join, leave, rescore := watchEvents(t, watch)
	// Fresh maps per event, as decoded JSON events arrive: the window must
	// not keep one per worker.
	attrs := func(i int) map[string]any { return map[string]any{"G": fmt.Sprintf("g%d", i%streamGroups)} }
	ids := make([]string, live)
	for i := range ids {
		ids[i] = fmt.Sprintf("w%d", i)
		if err := join(ids[i], attrs(i), float64(i%10)/10); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < cycles; c++ {
		slot := c % live
		if err := leave(ids[slot]); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		ids[slot] = fmt.Sprintf("w%d", live+c)
		if err := join(ids[slot], attrs(c), float64(c%97)/97); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if c%7 == 0 {
			if err := rescore(ids[(slot+live/2)%live], float64(c%13)/13); err != nil {
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

// TestWindowForgetsDepartedWorkers pins that a watch's window treats a
// departed worker as unknown, whether its span was still in the window
// when it left or had already aged out: a Rescore must not re-admit it,
// and a second Leave is an error.
func TestWindowForgetsDepartedWorkers(t *testing.T) {
	watch := streamWatch(t, 2, 0)
	join, leave, rescore := watchEvents(t, watch)
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
	must(join("a", groupAttrMaps[0], 0.1))
	must(leave("a")) // a's span is live: an effective leave
	wantUnknown("rescore after live leave", rescore("a", 0.5))
	wantUnknown("leave after live leave", leave("a"))

	must(join("b", groupAttrMaps[1], 0.2))
	must(join("c", groupAttrMaps[2], 0.3))
	must(join("d", groupAttrMaps[3], 0.4)) // b's span ages out
	if err := join("b", groupAttrMaps[1], 0.9); err == nil {
		t.Fatal("duplicate join of an aged-out worker accepted")
	}
	must(leave("b")) // aged out: admits nothing
	wantUnknown("rescore after aged-out leave", rescore("b", 0.5))
	wantUnknown("leave after aged-out leave", leave("b"))

	// A departed worker may come back as a new arrival.
	must(join("a", groupAttrMaps[0], 0.6))
	must(rescore("a", 0.7))
	if len(watch.tab.slots) != 3 {
		t.Fatalf("worker table holds %d entries, want c, d and a", len(watch.tab.slots))
	}
}
