package drift

import (
	"fmt"
	"time"

	"fairrank/internal/dataset"
	"fairrank/internal/monitor"
	"fairrank/internal/scoring"
)

// Watch is one live continuous audit: the configured estimators (sliding
// window, exponential decay, and always the unbounded-history monitor)
// fed in lockstep from one event stream, with the alarm rules evaluated
// after every event. It is the one front of the window and the decay —
// the engine behind a server-side monitor, fairbench -drift and fairaudit's
// continuous readout. Not safe for concurrent use.
type Watch struct {
	spec Spec
	// cells and tab are shared by every estimator: an event costs one
	// worker lookup and a join one cell-key build, however many
	// estimators it feeds.
	cells  *monitor.Cells
	tab    *workerTable
	window *Window
	decay  *Decay
	total  *monitor.Monitor
	// alarms live in one contiguous slice — the per-event rule scan walks
	// them in cache order. needSrc marks which estimator values the rule
	// set reads, so evaluate computes each at most once per event.
	alarms  []alarm
	needSrc [3]bool
	events  int64
	met     driftMetrics
}

// NewWatch builds a watch from a validated spec and the dataset schema
// its attributes refer to.
func NewWatch(schema *dataset.Schema, spec Spec) (*Watch, error) {
	spec = spec.normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cells, err := monitor.NewCells(schema, spec.Attributes)
	if err != nil {
		return nil, err
	}
	total, err := monitor.NewWithCells(cells, spec.Bins, 0)
	if err != nil {
		return nil, err
	}
	w := &Watch{spec: spec, cells: cells, tab: newWorkerTable(), total: total}
	if spec.Window > 0 {
		w.window, err = newWindow(cells, w.tab, spec.Bins, spec.Window)
		if err != nil {
			return nil, err
		}
	}
	if spec.HalfLife > 0 {
		w.decay, err = newDecay(cells, w.tab, spec.Bins, spec.HalfLife)
		if err != nil {
			return nil, err
		}
	}
	for _, r := range spec.Rules {
		a := newAlarm(r)
		w.alarms = append(w.alarms, *a)
		w.needSrc[a.srcIdx] = true
	}
	return w, nil
}

// Spec returns the watch's (normalized) spec.
func (w *Watch) Spec() Spec { return w.spec }

// Apply feeds one event through every estimator and then evaluates the
// alarm rules, returning any transitions. The event is rejected — and
// counts for nothing — if the unbounded monitor rejects it (duplicate
// join, unknown worker, bad attributes), so the estimators never diverge.
func (w *Watch) Apply(ev Event) ([]AlarmEvent, error) {
	if w.met.latency == nil {
		// Metrics disabled (CLIs, tests): skip the clock reads and the
		// telemetry bookkeeping, not just the final no-op publishes.
		if err := w.applyEstimators(ev); err != nil {
			return nil, err
		}
		w.events++
		return w.evaluate(), nil
	}
	start := time.Now()
	if err := w.applyEstimators(ev); err != nil {
		return nil, err
	}
	w.events++
	out := w.evaluate()
	w.met.event(ev.Type)
	w.met.sync(w)
	w.met.latency.ObserveSince(start)
	return out, nil
}

// Reserve makes room for n workers on the platform, so a watch seeded
// from a dataset of n rows holds exactly n worker rows.
func (w *Watch) Reserve(n int) { w.tab.reserve(n) }

// SeedDataset seeds w with every row of ds as a join event, through Seed:
// the worker's id is the row's, its protected values are the row's values
// of the spec's attributes (a categorical's label, a numeric's raw value),
// and its score is the row's under the linear function of the spec's
// weights. each, when not nil, is called after every row with the number
// of rows seeded so far.
func SeedDataset(w *Watch, ds *dataset.Dataset, each func(n int)) error {
	f, err := scoring.NewLinear(w.spec.ID, w.spec.Weights)
	if err != nil {
		return err
	}
	schema := ds.Schema()
	attrs := make([]int, len(w.spec.Attributes))
	for i, name := range w.spec.Attributes {
		if attrs[i] = schema.ProtectedIndex(name); attrs[i] < 0 {
			return fmt.Errorf("%q is not a protected attribute", name)
		}
	}
	w.Reserve(ds.N())
	for i := 0; i < ds.N(); i++ {
		prot := make(map[string]any, len(attrs))
		for _, a := range attrs {
			if def := schema.Protected[a]; def.Kind == dataset.Categorical {
				prot[def.Name] = ds.ProtectedLabel(a, i)
			} else {
				prot[def.Name] = ds.RawProtected(a, i)
			}
		}
		ev := Event{Type: EventJoin, Worker: ds.ID(i), Protected: prot, Score: f.Score(ds, i)}
		if err := w.Seed(ev); err != nil {
			return fmt.Errorf("seed row %d: %w", i, err)
		}
		if each != nil {
			each(i + 1)
		}
	}
	return nil
}

// Seed applies one event to the estimators WITHOUT evaluating alarm
// rules. Seeding is reconstruction, not observation: when a watch is
// (re)built from a population snapshot, the replay must bring the
// estimators to a truthful state without the rules interpreting the
// transient — on a restart, a restored active alarm would otherwise be
// spuriously cleared (or re-fired) partway through a seed longer than
// its warmup. Seeded events do not count toward Events(), rule warmups,
// or the delta rule's lookback ring.
func (w *Watch) Seed(ev Event) error {
	return w.applyEstimators(ev)
}

// applyEstimators validates and applies one event to every estimator. It
// is the one place a worker id becomes estimator state: one lookup in the
// shared worker table, the duplicate and unknown checks, and a join's cell
// resolution serve all three estimators. The checks go first, so a
// rejected event mutates nothing; the error texts are the monitor's own.
func (w *Watch) applyEstimators(ev Event) error {
	if err := ev.Validate(); err != nil {
		return err
	}
	slot, on := w.tab.lookup(ev.Worker)
	if ev.Type == EventJoin {
		if on {
			return fmt.Errorf("monitor: worker %q already present", ev.Worker)
		}
		cell, err := w.cells.Cell(ev.Protected)
		if err != nil {
			return err
		}
		slot = w.tab.add(ev.Worker, cell)
		w.total.JoinCell(&w.tab.rows[slot].total, cell, ev.Score, 1)
		if w.window != nil {
			w.window.join(slot, ev.Worker, ev.Protected, ev.Score)
		}
		if w.decay != nil {
			w.decay.join(slot, ev.Score)
		}
		return nil
	}
	if !on {
		return fmt.Errorf("monitor: unknown worker %q", ev.Worker)
	}
	if ev.Type == EventLeave {
		w.total.LeaveWorker(&w.tab.rows[slot].total, 1)
		if w.window != nil {
			w.window.leave(slot, ev.Worker)
		}
		if w.decay != nil {
			w.decay.leave(slot)
		}
		w.tab.remove(ev.Worker, slot)
		return nil
	}
	w.total.RescoreWorker(&w.tab.rows[slot].total, 1, ev.Score, 1)
	if w.window != nil {
		w.window.rescore(slot, ev.Worker, ev.Score)
	}
	if w.decay != nil {
		w.decay.rescore(slot, ev.Score)
	}
	return nil
}

// evaluate runs every alarm rule against this event's estimator values.
// Each source is read at most once per event; no allocation happens
// unless a rule transitions.
func (w *Watch) evaluate() []AlarmEvent {
	var vals [4]float64 // indexed by srcIdx&3: no bounds check in the loop
	if w.needSrc[srcIdxTotal] {
		vals[srcIdxTotal] = w.total.Unfairness()
	}
	if w.needSrc[srcIdxWindow] {
		vals[srcIdxWindow] = w.window.Unfairness()
	}
	if w.needSrc[srcIdxDecay] {
		vals[srcIdxDecay] = w.decay.Unfairness()
	}
	var out []AlarmEvent
	alarms := w.alarms
	for i := range alarms {
		a := &alarms[i]
		v := vals[a.srcIdx&3]
		if signal, crossed := a.step(v); crossed {
			out = w.cross(out, a, v, signal)
		}
	}
	return out
}

// cross is evaluate's cold path, kept out of its loop: the rule's signal
// crossed a level, and unless warmup or cooldown suppresses the flip, the
// transition is appended to out.
func (w *Watch) cross(out []AlarmEvent, a *alarm, v, signal float64) []AlarmEvent {
	kind, ok := a.transition(w.events)
	if !ok {
		return out
	}
	w.met.transition(kind)
	return append(out, AlarmEvent{
		Monitor:  w.spec.ID,
		Rule:     a.spec.Name,
		RuleType: a.spec.Type,
		Type:     kind,
		Value:    v,
		Signal:   signal,
		Limit:    a.limit,
		Event:    w.events,
	})
}

// Unfairness reads one estimator's current value.
func (w *Watch) Unfairness(src Source) (float64, error) {
	switch src {
	case SourceTotal, "":
		return w.total.Unfairness(), nil
	case SourceWindow:
		if w.window == nil {
			return 0, fmt.Errorf("drift: no window estimator configured")
		}
		return w.window.Unfairness(), nil
	case SourceDecay:
		if w.decay == nil {
			return 0, fmt.Errorf("drift: no decay estimator configured")
		}
		return w.decay.Unfairness(), nil
	}
	return 0, fmt.Errorf("drift: unknown source %q", src)
}

// SealBaseline records the current estimator value as every
// window-vs-baseline rule's comparison level, returning the sealed values
// by rule name. Call it once the seeded (pre-drift) population is in.
func (w *Watch) SealBaseline() map[string]float64 {
	out := map[string]float64{}
	for i := range w.alarms {
		a := &w.alarms[i]
		if a.spec.Type != RuleBaseline {
			continue
		}
		v, _ := w.Unfairness(a.spec.Source)
		a.seal(v)
		out[a.spec.Name] = v
	}
	return out
}

// AlarmStates snapshots every rule's persistable state, in rule order.
func (w *Watch) AlarmStates() []AlarmState {
	out := make([]AlarmState, 0, len(w.alarms))
	for _, a := range w.alarms {
		out = append(out, AlarmState{
			Rule:        a.spec.Name,
			Active:      a.active,
			Fired:       a.fired,
			Baseline:    a.baseline,
			BaselineSet: a.baselineSet,
		})
	}
	return out
}

// RestoreAlarms re-applies persisted alarm state after a restart: active
// flags, fired counts and sealed baselines survive; evaluation counters do
// not, so each rule's Warmup re-applies while the window re-seeds — that
// is what makes a restart neither lose nor re-fire an active alarm.
func (w *Watch) RestoreAlarms(states []AlarmState) {
	byName := map[string]AlarmState{}
	for _, st := range states {
		byName[st.Rule] = st
	}
	for i := range w.alarms {
		a := &w.alarms[i]
		st, ok := byName[a.spec.Name]
		if !ok {
			continue
		}
		a.restore(st)
	}
}

// EstimatorStatus is one estimator's slice of a Status.
type EstimatorStatus struct {
	Unfairness float64 `json:"unfairness"`
	Workers    int     `json:"workers"`
	Groups     int     `json:"groups"`
	// Live and Retractions describe window occupancy; window only.
	Live        int   `json:"live,omitempty"`
	Retractions int64 `json:"retractions,omitempty"`
}

// AlarmStatus is one rule's slice of a Status.
type AlarmStatus struct {
	Rule     string   `json:"rule"`
	Type     RuleType `json:"type"`
	Source   Source   `json:"source"`
	Active   bool     `json:"active"`
	Fired    int64    `json:"fired"`
	Baseline float64  `json:"baseline,omitempty"`
}

// Status is the queryable snapshot of a watch.
type Status struct {
	ID     string           `json:"id"`
	Events int64            `json:"events"`
	Total  EstimatorStatus  `json:"total"`
	Window *EstimatorStatus `json:"window,omitempty"`
	Decay  *EstimatorStatus `json:"decay,omitempty"`
	Alarms []AlarmStatus    `json:"alarms"`
}

// Status snapshots the watch for the HTTP surface.
func (w *Watch) Status() Status {
	st := Status{
		ID:     w.spec.ID,
		Events: w.events,
		Total: EstimatorStatus{
			Unfairness: w.total.Unfairness(),
			Workers:    w.total.Workers(),
			Groups:     w.total.Groups(),
		},
		Alarms: []AlarmStatus{},
	}
	if w.window != nil {
		st.Window = &EstimatorStatus{
			Unfairness:  w.window.Unfairness(),
			Workers:     w.window.Workers(),
			Groups:      w.window.Groups(),
			Live:        w.window.Live(),
			Retractions: w.window.Retractions(),
		}
	}
	if w.decay != nil {
		st.Decay = &EstimatorStatus{
			Unfairness: w.decay.Unfairness(),
			Workers:    w.decay.Workers(),
			Groups:     w.decay.Groups(),
		}
	}
	for _, a := range w.alarms {
		s := AlarmStatus{
			Rule:   a.spec.Name,
			Type:   a.spec.Type,
			Source: a.spec.Source,
			Active: a.active,
			Fired:  a.fired,
		}
		if a.baselineSet {
			s.Baseline = a.baseline
		}
		st.Alarms = append(st.Alarms, s)
	}
	return st
}

// ActiveAlarms returns how many rules are currently firing.
func (w *Watch) ActiveAlarms() int {
	n := 0
	for _, a := range w.alarms {
		if a.active {
			n++
		}
	}
	return n
}
