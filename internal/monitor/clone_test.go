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
	mu, err := m.UnfairnessErr()
	if err != nil {
		t.Fatal(err)
	}
	cu, err := c.UnfairnessErr()
	if err != nil {
		t.Fatal(err)
	}
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
	if got, _ := c.UnfairnessErr(); got != cu {
		t.Fatalf("clone moved when original mutated: %v != %v", got, cu)
	}
	// Mutate the clone; it must stay internally consistent (delta path
	// agrees with Recompute) and the original must not move.
	before, _ := m.UnfairnessErr()
	for i := 25; i < 50; i++ {
		if err := c.Rescore(fmt.Sprintf("w%d", i), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	inc, err := c.UnfairnessErr()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := c.Recompute()
	if err != nil {
		t.Fatal(err)
	}
	if inc != rec {
		t.Fatalf("mutated clone inconsistent: incremental %v != recompute %v", inc, rec)
	}
	if got, _ := m.UnfairnessErr(); got != before {
		t.Fatalf("original moved when clone mutated: %v != %v", got, before)
	}
}

// TestEventErrorsNameWorker is the regression test for the Leave/Rescore
// error paths: a failed histogram removal must name the worker, so
// failures in long streams are attributable.
func TestEventErrorsNameWorker(t *testing.T) {
	for _, op := range []string{"leave", "rescore"} {
		m := newMonitor(t, []string{"Gender"}, 1)
		if err := m.Join("victim-42", maleAttrs(), 0.1); err != nil {
			t.Fatal(err)
		}
		// Corrupt the bookkeeping so the histogram removal must fail.
		m.workers["victim-42"] = Worker{g: m.workers["victim-42"].g, score: 0.95}
		var err error
		if op == "leave" {
			err = m.Leave("victim-42")
		} else {
			err = m.Rescore("victim-42", 0.2)
		}
		if err == nil {
			t.Fatalf("%s: corrupted removal succeeded", op)
		}
		if !strings.Contains(err.Error(), `"victim-42"`) {
			t.Fatalf("%s error does not name the worker: %v", op, err)
		}
	}
}
