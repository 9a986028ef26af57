package testkit

import (
	"reflect"
	"testing"
)

// VariantRunner executes one named case with a boolean engine variant
// switched on or off, returning whatever observable outcome the caller
// wants compared — typically a digest struct of result values, traces and
// error text. Runners must rebuild all state per call so the two
// executions cannot share caches.
type VariantRunner func(name string, on bool) any

// CheckVariantEquivalence is the differential oracle for switches that
// promise bit-identical results (e.g. the engine's pruning cascade): every
// named case runs twice — variant off, then on — and the outcomes must be
// deeply equal.
// Digests should carry exact floats, not rounded summaries, so the check
// really is bit-level.
func CheckVariantEquivalence(t *testing.T, variant string, names []string, run VariantRunner) {
	t.Helper()
	for _, name := range names {
		base := run(name, false)
		got := run(name, true)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("%s: %s on/off diverged:\noff: %+v\non:  %+v", name, variant, base, got)
		}
	}
}
