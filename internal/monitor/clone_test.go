package monitor

import (
	"fmt"
	"strings"
	"testing"

	"fairrank/internal/rng"
)

// TestCloneIndependence pins Clone's deep-copy contract: the clone reads
// bit-identically at the fork point, and events applied to either side
// never leak into the other.
func TestCloneIndependence(t *testing.T) {
	m := newMonitor(t, []string{"Gender"}, 1)
	r := rng.New(7)
	for i := 0; i < 50; i++ {
		attrs := maleAttrs()
		if i%2 == 1 {
			attrs = femaleAttrs()
		}
		if err := m.Join(fmt.Sprintf("w%d", i), attrs, r.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	c := m.Clone()
	mu, cu := m.Unfairness(), c.Unfairness()
	if mu != cu {
		t.Fatalf("clone diverges at fork: %v != %v", cu, mu)
	}
	if c.Workers() != m.Workers() || c.Groups() != m.Groups() {
		t.Fatalf("clone population mismatch: %d/%d vs %d/%d",
			c.Workers(), c.Groups(), m.Workers(), m.Groups())
	}
	// Mutate the original; the clone must not move.
	for i := 0; i < 25; i++ {
		if err := m.Leave(fmt.Sprintf("w%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Unfairness(); got != cu {
		t.Fatalf("clone moved when original mutated: %v != %v", got, cu)
	}
	// Mutate the clone; it must stay internally consistent (delta path
	// agrees with Recompute) and the original must not move.
	before := m.Unfairness()
	for i := 25; i < 50; i++ {
		if err := c.Rescore(fmt.Sprintf("w%d", i), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if inc, rec := c.Unfairness(), c.Recompute(); inc != rec {
		t.Fatalf("mutated clone inconsistent: incremental %v != recompute %v", inc, rec)
	}
	if got := m.Unfairness(); got != before {
		t.Fatalf("original moved when clone mutated: %v != %v", got, before)
	}
}

// TestEventErrorsNameWorker is the regression test for the Join, Leave
// and Rescore error paths: a rejected event must name the worker, so
// failures in long streams are attributable. A departure or re-score
// takes back the stored bin and weight and cannot fail, so what is left
// is a duplicate arrival and an event for a worker not on the platform.
func TestEventErrorsNameWorker(t *testing.T) {
	m := newMonitor(t, []string{"Gender"}, 1)
	if err := m.Join("victim-42", maleAttrs(), 0.1); err != nil {
		t.Fatal(err)
	}
	errs := map[string]error{"join": m.Join("victim-42", maleAttrs(), 0.3)}
	if err := m.Leave("victim-42"); err != nil {
		t.Fatal(err)
	}
	errs["leave"] = m.Leave("victim-42")
	errs["rescore"] = m.Rescore("victim-42", 0.2)
	for op, err := range errs {
		if err == nil {
			t.Fatalf("%s: event for worker %q accepted", op, "victim-42")
		}
		if !strings.Contains(err.Error(), `"victim-42"`) {
			t.Fatalf("%s error does not name the worker: %v", op, err)
		}
	}
	if m.Workers() != 0 || m.Groups() != 0 {
		t.Fatalf("rejected events left %d workers in %d groups", m.Workers(), m.Groups())
	}
}
