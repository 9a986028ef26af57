package drift

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"regexp"
)

// Bounds enforced by Spec.Validate.
const (
	// MaxBins bounds the histogram resolution of the estimators.
	MaxBins = 10000
	// MaxWindow bounds the sliding-window capacity; the ring holds O(W)
	// entries per monitor.
	MaxWindow = 1 << 24
	// MaxRules bounds the per-monitor rule count.
	MaxRules = 64
)

var idPattern = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,63}$`)

// Spec is the wire-format monitor specification a client submits to
// POST /v1/monitors. The server seeds the watch from the named dataset
// (every worker joins, scored by the linear weights), seals baseline
// rules, and then feeds it live events from POST /v1/monitors/{id}/events.
type Spec struct {
	// ID names the monitor; it addresses the event stream and the WAL
	// record, so it is restricted to a URL- and key-safe alphabet.
	ID string `json:"id"`
	// Dataset names the registered dataset whose population seeds the
	// watch and whose schema defines the protected attributes.
	Dataset string `json:"dataset"`
	// Attributes are the protected attributes whose induced partitioning
	// is monitored.
	Attributes []string `json:"attributes"`
	// Weights defines the linear scoring function used to seed worker
	// scores from the dataset snapshot.
	Weights map[string]float64 `json:"weights"`
	// Bins is the histogram bin count (0 = default 10).
	Bins int `json:"bins,omitempty"`
	// Window is the sliding-window capacity in effective events; 0
	// disables the window estimator.
	Window int `json:"window,omitempty"`
	// HalfLife enables the exponential-decay estimator (in events); 0
	// disables it.
	HalfLife float64 `json:"half_life,omitempty"`
	// Rules are the alarm rules evaluated after every event.
	Rules []RuleSpec `json:"rules,omitempty"`
}

// DecodeSpec parses and validates a submitted monitor spec. It is strict —
// unknown fields and trailing garbage are rejected — because specs are
// persisted and revived at boot: a typo silently ignored at creation would
// come back as a surprising monitor after a restart.
func DecodeSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("drift: bad spec json: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, errors.New("drift: trailing data after spec json")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s.normalize(), nil
}

// Validate checks the spec's self-contained invariants. Dataset existence
// and attribute names are checked against live server state, not here.
func (s Spec) Validate() error {
	if !idPattern.MatchString(s.ID) {
		return fmt.Errorf("drift: bad monitor id %q", s.ID)
	}
	if s.Dataset == "" {
		return errors.New("drift: spec needs a dataset")
	}
	if len(s.Attributes) == 0 {
		return errors.New("drift: spec needs at least one attribute")
	}
	for _, a := range s.Attributes {
		if a == "" {
			return errors.New("drift: empty attribute name")
		}
	}
	if len(s.Weights) == 0 {
		return errors.New("drift: spec needs scoring weights")
	}
	for attr, w := range s.Weights {
		if attr == "" {
			return errors.New("drift: empty weight attribute name")
		}
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("drift: invalid weight %v for %q", w, attr)
		}
	}
	if s.Bins < 0 || s.Bins > MaxBins {
		return fmt.Errorf("drift: bins %d out of range [0, %d]", s.Bins, MaxBins)
	}
	if s.Window < 0 || s.Window > MaxWindow {
		return fmt.Errorf("drift: window %d out of range [0, %d]", s.Window, MaxWindow)
	}
	if s.HalfLife < 0 || math.IsNaN(s.HalfLife) || math.IsInf(s.HalfLife, 0) {
		return fmt.Errorf("drift: invalid half_life %v", s.HalfLife)
	}
	if len(s.Rules) > MaxRules {
		return fmt.Errorf("drift: %d rules exceeds limit %d", len(s.Rules), MaxRules)
	}
	seen := map[string]bool{}
	for _, r := range s.Rules {
		if err := r.Validate(s.Window > 0, s.HalfLife > 0); err != nil {
			return err
		}
		if seen[r.Name] {
			return fmt.Errorf("drift: duplicate rule name %q", r.Name)
		}
		seen[r.Name] = true
	}
	return nil
}

// normalize collapses representations that decode differently but mean
// the same thing, and fills rule-source defaults, so a decoded spec
// round-trips through Marshal/Decode unchanged (pinned by
// FuzzMonitorSpecJSON).
func (s Spec) normalize() Spec {
	if len(s.Attributes) == 0 {
		s.Attributes = nil
	}
	if len(s.Rules) == 0 {
		s.Rules = nil
	}
	for i, r := range s.Rules {
		if r.Source == "" {
			if s.Window > 0 {
				s.Rules[i].Source = SourceWindow
			} else {
				s.Rules[i].Source = SourceTotal
			}
		}
	}
	return s
}

// Wire event types carried on Event.Type.
const (
	EventJoin    = "join"
	EventLeave   = "leave"
	EventRescore = "rescore"
)

// Event is one worker lifecycle event on the wire: the body of
// POST /v1/monitors/{id}/events carries a batch of these.
type Event struct {
	Type   string `json:"type"`
	Worker string `json:"worker"`
	// Protected carries the worker's protected attribute values; join
	// events only.
	Protected map[string]any `json:"protected,omitempty"`
	// Score is the worker's score; join and rescore events only.
	Score float64 `json:"score,omitempty"`
}

// Validate checks the event's shape.
func (e Event) Validate() error {
	if e.Worker == "" {
		return errors.New("drift: event needs a worker id")
	}
	switch e.Type {
	case EventJoin:
		if len(e.Protected) == 0 {
			return fmt.Errorf("drift: join for %q needs protected attributes", e.Worker)
		}
	case EventLeave, EventRescore:
	default:
		return fmt.Errorf("drift: unknown event type %q", e.Type)
	}
	if math.IsNaN(e.Score) || math.IsInf(e.Score, 0) {
		return fmt.Errorf("drift: non-finite score for %q", e.Worker)
	}
	return nil
}
