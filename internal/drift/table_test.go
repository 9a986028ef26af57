package drift

import (
	"testing"

	"fairrank/internal/simulate"
)

// TestReserveSizesWorkerTable seeds a watch with the paper's 7,300
// workers as the server seeds a monitor, room reserved first: the worker
// table then holds exactly 7,300 rows, none to spare.
func TestReserveSizesWorkerTable(t *testing.T) {
	ds, err := simulate.PaperWorkers(7300, 42)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWatch(ds.Schema(), Spec{ID: "m", Dataset: "paper", Attributes: []string{"Gender", "Country"},
		Weights: map[string]float64{"LanguageTest": 1}, Window: 2048, HalfLife: 1024})
	if err != nil {
		t.Fatal(err)
	}
	w.Reserve(ds.N())
	for i := 0; i < ds.N(); i++ {
		ev := Event{Type: EventJoin, Worker: ds.ID(i), Score: float64(i%101) / 100, Protected: map[string]any{
			"Gender": ds.ProtectedLabel(0, i), "Country": ds.ProtectedLabel(1, i),
		}}
		if err := w.Seed(ev); err != nil {
			t.Fatal(err)
		}
	}
	if len(w.tab.rows) != 7300 || cap(w.tab.rows) != 7300 {
		t.Fatalf("table holds %d rows in room for %d", len(w.tab.rows), cap(w.tab.rows))
	}
}
