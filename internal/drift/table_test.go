package drift

import (
	"testing"

	"fairrank/internal/simulate"
)

// TestReserveSizesWorkerTable seeds a watch with the paper's 7,300
// workers as the server seeds a monitor, through SeedDataset, which
// reserves room first: the worker table then holds exactly 7,300 rows,
// none to spare.
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
	if err := SeedDataset(w, ds, nil); err != nil {
		t.Fatal(err)
	}
	if len(w.tab.rows) != 7300 || cap(w.tab.rows) != 7300 {
		t.Fatalf("table holds %d rows in room for %d", len(w.tab.rows), cap(w.tab.rows))
	}
}
