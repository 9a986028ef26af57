package drift

import (
	"testing"
)

// observed counts each alarm's observations across observeAll calls: the
// event index a watch would pass, 1-based from the alarm's creation.
var observed = map[*alarm]int64{}

// observeAll feeds a value sequence through an alarm as Watch.evaluate
// does — step, then transition on a crossing — returning the transition
// kinds in order.
func observeAll(a *alarm, values []float64) []string {
	var out []string
	for _, v := range values {
		observed[a]++
		if _, crossed := a.step(v); !crossed {
			continue
		}
		if kind, ok := a.transition(observed[a]); ok {
			out = append(out, kind)
		}
	}
	return out
}

func eq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestThresholdHysteresis(t *testing.T) {
	a := newAlarm(RuleSpec{Name: "t", Type: RuleThreshold, Threshold: 0.5, Hysteresis: 0.2})
	// Fires above 0.5; clears only below 0.5·(1−0.2) = 0.4. The dips to
	// 0.45 sit inside the hysteresis band and must not flap.
	got := observeAll(a, []float64{0.3, 0.6, 0.45, 0.55, 0.45, 0.35, 0.6})
	want := []string{AlarmFired, AlarmCleared, AlarmFired}
	if !eq(got, want) {
		t.Fatalf("transitions %v, want %v", got, want)
	}
	if a.fired != 2 {
		t.Fatalf("fired count %d, want 2", a.fired)
	}
}

func TestThresholdCooldown(t *testing.T) {
	a := newAlarm(RuleSpec{Name: "t", Type: RuleThreshold, Threshold: 0.5, Cooldown: 3})
	// After firing at event 2, the clear-worthy values at events 3–4 are
	// inside the cooldown and suppressed; event 5 clears.
	got := observeAll(a, []float64{0.3, 0.6, 0.1, 0.1, 0.1, 0.6})
	want := []string{AlarmFired, AlarmCleared}
	if !eq(got, want) {
		t.Fatalf("transitions %v, want %v", got, want)
	}
	// The re-fire at event 6 is within cooldown of the clear at event 5.
	if a.active {
		t.Fatal("re-fired inside cooldown")
	}
}

func TestWarmupSuppresses(t *testing.T) {
	a := newAlarm(RuleSpec{Name: "t", Type: RuleThreshold, Threshold: 0.5, Warmup: 3})
	got := observeAll(a, []float64{0.9, 0.9, 0.9, 0.9})
	want := []string{AlarmFired} // only the 4th observation evaluates
	if !eq(got, want) {
		t.Fatalf("transitions %v, want %v", got, want)
	}
}

func TestDeltaOverWindow(t *testing.T) {
	a := newAlarm(RuleSpec{Name: "d", Type: RuleDelta, Delta: 0.2, Lookback: 2})
	// Signal is v − v[t−2]: primed after 2 values; 0.45−0.1 = 0.35 > 0.2
	// fires; the plateau's slope 0 clears immediately (no hysteresis).
	got := observeAll(a, []float64{0.1, 0.1, 0.45, 0.45, 0.45})
	want := []string{AlarmFired, AlarmCleared}
	if !eq(got, want) {
		t.Fatalf("transitions %v, want %v", got, want)
	}
}

func TestBaselineRule(t *testing.T) {
	a := newAlarm(RuleSpec{Name: "b", Type: RuleBaseline, Delta: 0.1, Hysteresis: 0.5})
	// Unsealed: never evaluates.
	if got := observeAll(a, []float64{0.9, 0.9}); got != nil {
		t.Fatalf("unsealed baseline rule transitioned: %v", got)
	}
	a.seal(0.3)
	// signal = v − 0.3 vs delta 0.1, clear below 0.1·0.5 = 0.05.
	got := observeAll(a, []float64{0.35, 0.45, 0.38, 0.34, 0.45})
	want := []string{AlarmFired, AlarmCleared, AlarmFired}
	if !eq(got, want) {
		t.Fatalf("transitions %v, want %v", got, want)
	}
}

// TestRestoreNoRefire is the restart contract at the alarm level: an
// active restored alarm must not emit a second "fired" when the signal is
// still high, and warmup re-applies so a re-seeding estimator's transient
// values emit nothing at all.
func TestRestoreNoRefire(t *testing.T) {
	spec := RuleSpec{Name: "b", Type: RuleBaseline, Delta: 0.1, Hysteresis: 0.3, Warmup: 5}
	a := newAlarm(spec)
	a.seal(0.2)
	fired := observeAll(a, []float64{0.2, 0.2, 0.2, 0.2, 0.2, 0.5, 0.5})
	if !eq(fired, []string{AlarmFired}) {
		t.Fatalf("pre-restart transitions %v", fired)
	}
	// "Restart": fresh alarm, restore persisted state.
	st := AlarmState{Rule: "b", Active: a.active, Fired: a.fired,
		Baseline: a.baseline, BaselineSet: a.baselineSet}
	b := newAlarm(spec)
	b.restore(st)
	// While re-seeding, the estimate climbs from 0 back to 0.5: without
	// warmup this would emit a spurious clear + re-fire pair.
	got := observeAll(b, []float64{0.0, 0.1, 0.3, 0.5, 0.5, 0.5, 0.5})
	if got != nil {
		t.Fatalf("restored alarm transitioned during re-seed: %v", got)
	}
	if !b.active || b.fired != 1 {
		t.Fatalf("restored alarm lost state: active=%v fired=%d", b.active, b.fired)
	}
	// Once warm, a genuine drop clears exactly once.
	got = observeAll(b, []float64{0.2, 0.2})
	if !eq(got, []string{AlarmCleared}) {
		t.Fatalf("post-warmup transitions %v", got)
	}
}

func TestRuleSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		r    RuleSpec
		ok   bool
	}{
		{"threshold ok", RuleSpec{Name: "a", Type: RuleThreshold, Threshold: 0.1}, true},
		{"no name", RuleSpec{Type: RuleThreshold, Threshold: 0.1}, false},
		{"zero threshold", RuleSpec{Name: "a", Type: RuleThreshold}, false},
		{"unknown type", RuleSpec{Name: "a", Type: "spike", Threshold: 0.1}, false},
		{"delta ok", RuleSpec{Name: "a", Type: RuleDelta, Delta: 0.1, Lookback: 5}, true},
		{"delta no lookback", RuleSpec{Name: "a", Type: RuleDelta, Delta: 0.1}, false},
		{"baseline ok", RuleSpec{Name: "a", Type: RuleBaseline, Delta: 0.1}, true},
		{"baseline no delta", RuleSpec{Name: "a", Type: RuleBaseline}, false},
		{"bad hysteresis", RuleSpec{Name: "a", Type: RuleThreshold, Threshold: 0.1, Hysteresis: 1}, false},
		{"negative cooldown", RuleSpec{Name: "a", Type: RuleThreshold, Threshold: 0.1, Cooldown: -1}, false},
		{"window source without window", RuleSpec{Name: "a", Type: RuleThreshold, Threshold: 0.1, Source: SourceWindow}, false},
		{"decay source without decay", RuleSpec{Name: "a", Type: RuleThreshold, Threshold: 0.1, Source: SourceDecay}, false},
		{"bad source", RuleSpec{Name: "a", Type: RuleThreshold, Threshold: 0.1, Source: "psychic"}, false},
	}
	for _, tc := range cases {
		err := tc.r.Validate(false, false)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
