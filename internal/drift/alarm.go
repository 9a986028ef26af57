package drift

import (
	"fmt"
	"math"
)

// RuleType discriminates the watch rules the alarm engine evaluates.
type RuleType string

const (
	// RuleThreshold fires while the estimate exceeds a fixed level.
	RuleThreshold RuleType = "threshold"
	// RuleDelta ("delta-over-window") fires while the estimate has risen
	// by more than Delta relative to its own value Lookback events ago —
	// a slope detector that catches fast drift regardless of level.
	RuleDelta RuleType = "delta-over-window"
	// RuleBaseline ("window-vs-baseline") fires while the estimate
	// exceeds a sealed baseline by more than Delta — the drift detector:
	// seal after warmup, alarm when the present diverges from it.
	RuleBaseline RuleType = "window-vs-baseline"
)

// Source selects which estimator a rule reads.
type Source string

const (
	// SourceWindow reads the sliding-window estimate.
	SourceWindow Source = "window"
	// SourceDecay reads the exponential-decay estimate.
	SourceDecay Source = "decay"
	// SourceTotal reads the unbounded-history monitor.
	SourceTotal Source = "total"
)

// RuleSpec is one named watch rule. Hysteresis, cooldown and warmup make
// the alarm lifecycle flap-resistant: a firing rule clears only when the
// signal drops below Limit·(1−Hysteresis), transitions are at least
// Cooldown events apart, and nothing is evaluated until Warmup events
// have been observed (re-applied after a restart, so a re-seeding window
// never emits spurious transitions).
type RuleSpec struct {
	Name string   `json:"name"`
	Type RuleType `json:"type"`
	// Source defaults to "window" when the watch has one, else "total".
	Source Source `json:"source,omitempty"`
	// Threshold is the fixed level for "threshold" rules.
	Threshold float64 `json:"threshold,omitempty"`
	// Delta is the rise that trips "delta-over-window" and
	// "window-vs-baseline" rules.
	Delta float64 `json:"delta,omitempty"`
	// Lookback is the comparison distance in events for
	// "delta-over-window" rules.
	Lookback int `json:"lookback,omitempty"`
	// Hysteresis in [0, 1): the cleared level is Limit·(1−Hysteresis).
	Hysteresis float64 `json:"hysteresis,omitempty"`
	// Cooldown is the minimum number of events between transitions.
	Cooldown int `json:"cooldown,omitempty"`
	// Warmup is the number of events observed before the rule evaluates.
	Warmup int `json:"warmup,omitempty"`
}

// Validate checks one rule against the watch's configured estimators.
func (r RuleSpec) Validate(hasWindow, hasDecay bool) error {
	if r.Name == "" {
		return fmt.Errorf("drift: rule needs a name")
	}
	switch r.Type {
	case RuleThreshold:
		if !(r.Threshold > 0) {
			return fmt.Errorf("drift: rule %q: threshold must be positive", r.Name)
		}
	case RuleDelta:
		if !(r.Delta > 0) {
			return fmt.Errorf("drift: rule %q: delta must be positive", r.Name)
		}
		if r.Lookback < 1 {
			return fmt.Errorf("drift: rule %q: lookback must be positive", r.Name)
		}
	case RuleBaseline:
		if !(r.Delta > 0) {
			return fmt.Errorf("drift: rule %q: delta must be positive", r.Name)
		}
	default:
		return fmt.Errorf("drift: rule %q: unknown type %q", r.Name, r.Type)
	}
	switch r.Source {
	case SourceWindow:
		if !hasWindow {
			return fmt.Errorf("drift: rule %q reads the window but none is configured", r.Name)
		}
	case SourceDecay:
		if !hasDecay {
			return fmt.Errorf("drift: rule %q reads the decay estimator but none is configured", r.Name)
		}
	case SourceTotal, "":
	default:
		return fmt.Errorf("drift: rule %q: unknown source %q", r.Name, r.Source)
	}
	if r.Hysteresis < 0 || r.Hysteresis >= 1 || math.IsNaN(r.Hysteresis) {
		return fmt.Errorf("drift: rule %q: hysteresis must be in [0, 1)", r.Name)
	}
	if r.Cooldown < 0 {
		return fmt.Errorf("drift: rule %q: negative cooldown", r.Name)
	}
	if r.Warmup < 0 {
		return fmt.Errorf("drift: rule %q: negative warmup", r.Name)
	}
	return nil
}

// Alarm transition types carried on AlarmEvent.Type.
const (
	AlarmFired   = "fired"
	AlarmCleared = "cleared"
)

// AlarmEvent is one alarm transition, published into the monitor's event
// hub for SSE delivery. Seq is hub-assigned.
type AlarmEvent struct {
	Seq      int64    `json:"seq"`
	Monitor  string   `json:"monitor"`
	Rule     string   `json:"rule"`
	RuleType RuleType `json:"rule_type"`
	Type     string   `json:"type"` // "fired" | "cleared"
	// Value is the estimator reading, Signal the compared quantity (the
	// value itself, or its rise over lookback/baseline) and Limit the
	// level it crossed.
	Value  float64 `json:"value"`
	Signal float64 `json:"signal"`
	Limit  float64 `json:"limit"`
	// Event is the watch's event index at the transition.
	Event int64 `json:"event"`
}

// AlarmState is the persistable slice of one rule's runtime state: enough
// for a restarted watch to neither lose nor re-fire an active alarm, and
// nothing that would couple the WAL to evaluation internals.
type AlarmState struct {
	Rule        string  `json:"rule"`
	Active      bool    `json:"active"`
	Fired       int64   `json:"fired"`
	Baseline    float64 `json:"baseline,omitempty"`
	BaselineSet bool    `json:"baseline_set,omitempty"`
}

// Source indices for the per-event hot path: a rule's source as an
// integer, so evaluation indexes the event's values instead of comparing
// strings.
const (
	srcIdxTotal = iota
	srcIdxWindow
	srcIdxDecay
)

func (s Source) index() uint8 {
	switch s {
	case SourceWindow:
		return srcIdxWindow
	case SourceDecay:
		return srcIdxDecay
	}
	return srcIdxTotal
}

// alarm is one rule's runtime state machine. The fields every event's
// evaluation touches come first, so a rule's hot state shares a cache
// line; the spec and transition bookkeeping follow.
type alarm struct {
	// The per-event check: the signal is the estimate (less its value
	// Lookback events ago, for delta rules) less offset, and it crosses
	// when above hi or below lo. arm keeps offset, hi and lo in step with
	// the rule's state, so checking costs no branch on it.
	offset float64
	hi, lo float64
	// hist is the delta-over-window value ring; histIdx is the cursor of
	// the value Lookback events ago once primed (the ring has wrapped).
	hist    []float64
	histIdx int
	primed  bool
	srcIdx  uint8 // the spec's source as an integer
	active  bool
	// baseline is the sealed comparison level for window-vs-baseline.
	baselineSet bool
	baseline    float64
	// limit is the fire level (Threshold or Delta, fixed by the spec);
	// clearLimit is the precomputed hysteresis floor an active alarm must
	// drop below to clear.
	limit      float64
	clearLimit float64
	fired      int64
	// lastTransition is the event index of the last transition (0 =
	// never), enforcing the cooldown.
	lastTransition int64
	spec           RuleSpec
}

func newAlarm(spec RuleSpec) *alarm {
	a := &alarm{spec: spec, srcIdx: spec.Source.index()}
	if spec.Type == RuleDelta {
		a.hist = make([]float64, spec.Lookback)
	}
	if spec.Type == RuleThreshold {
		a.limit = spec.Threshold
	} else {
		a.limit = spec.Delta
	}
	a.clearLimit = a.limit - float64(spec.Hysteresis*math.Abs(a.limit)) // rounded: no multiply-add fuses
	a.arm()
	return a
}

// arm sets the levels the signal must cross next: an inactive rule fires
// above limit, an active one clears below clearLimit, and a
// window-vs-baseline rule whose baseline is not sealed never crosses. The
// infinite level of each pair can never be crossed, NaN crosses neither.
func (a *alarm) arm() {
	a.offset = 0
	if a.spec.Type == RuleBaseline {
		if !a.baselineSet {
			a.hi, a.lo = math.Inf(1), math.Inf(-1)
			return
		}
		a.offset = a.baseline
	}
	if a.active {
		a.hi, a.lo = math.Inf(1), a.clearLimit
	} else {
		a.hi, a.lo = a.limit, math.Inf(-1)
	}
}

// seal records v as a window-vs-baseline rule's comparison level.
func (a *alarm) seal(v float64) {
	a.baseline, a.baselineSet = v, true
	a.arm()
}

// restore re-applies a persisted state.
func (a *alarm) restore(st AlarmState) {
	a.active, a.fired = st.Active, st.Fired
	a.baseline, a.baselineSet = st.Baseline, st.BaselineSet
	a.arm()
}

// step is the per-event hot path: it updates the rule's rolling state and
// reports the signal and whether it crossed the rule's armed level.
// Almost every event resolves here in a handful of compares; only a
// crossing goes on to transition, which applies the warmup and cooldown
// suppressions.
func (a *alarm) step(v float64) (signal float64, crossed bool) {
	signal = v
	if a.hist != nil {
		primed := a.primed
		old := a.hist[a.histIdx]
		a.hist[a.histIdx] = v
		if a.histIdx++; a.histIdx == len(a.hist) {
			a.histIdx, a.primed = 0, true
		}
		if !primed {
			return 0, false // lookback ring not primed yet
		}
		signal = v - old
	}
	signal -= a.offset
	return signal, signal > a.hi || signal < a.lo
}

// transition is the cold path behind step: the signal crossed a level,
// but warmup (rule too young) or cooldown (too soon after the last
// transition) may still suppress the flip. eventIdx counts the events
// this rule instance has observed, as the watch's event count does: it
// is never restored, so Warmup re-applies after a restart.
func (a *alarm) transition(eventIdx int64) (kind string, ok bool) {
	if eventIdx <= int64(a.spec.Warmup) {
		return "", false
	}
	if a.lastTransition != 0 && eventIdx-a.lastTransition < int64(a.spec.Cooldown) {
		return "", false
	}
	a.lastTransition = eventIdx
	a.active = !a.active
	a.arm()
	if !a.active {
		return AlarmCleared, true
	}
	a.fired++
	return AlarmFired, true
}

// observe feeds one event's estimator value through the state machine
// and reports a transition, if any. eventIdx is the watch's 1-based
// event index. Unit-test entry point; Watch.evaluate drives step and
// transition directly.
func (a *alarm) observe(v float64, eventIdx int64) (kind string, signal, limit float64, ok bool) {
	signal, crossed := a.step(v)
	if !crossed {
		return "", 0, 0, false
	}
	kind, ok = a.transition(eventIdx)
	if !ok {
		return "", 0, 0, false
	}
	return kind, signal, a.limit, true
}
