package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"fairrank/internal/emd"
)

// Spec is the wire-format audit specification a client submits to
// POST /v1/jobs: the audit's inputs plus its dispatch priority. The HTTP
// layer resolves it against its dataset table into a core.Spec at
// execution time, so a job survives restarts as pure data.
type Spec struct {
	// Dataset names the uploaded dataset under audit.
	Dataset string `json:"dataset,omitempty"`
	// Digest pins the content the job audits: the hex content digest
	// Dataset held when the server accepted the job, which the executor
	// runs whatever the name holds by then. Only the server sets it
	// (DecodeSpec refuses it).
	Digest string `json:"digest,omitempty"`
	// Algorithm is a registered audit algorithm; empty means "balanced".
	Algorithm string `json:"algorithm,omitempty"`
	// Weights defines the linear scoring function over observed
	// attributes.
	Weights map[string]float64 `json:"weights"`
	// Bins is the histogram bin count (0 = engine default).
	Bins int `json:"bins,omitempty"`
	// Metric selects the histogram distance (empty = EMD).
	Metric string `json:"metric,omitempty"`
	// Attributes restricts the audit to these protected attributes.
	Attributes []string `json:"attributes,omitempty"`
	// Seed drives the randomized baselines.
	Seed uint64 `json:"seed,omitempty"`
	// Budget caps exhaustive enumeration (0 = engine default).
	Budget int `json:"budget,omitempty"`
	// SignificanceRounds > 0 adds a permutation-test p-value
	// (core.Significance, seeded by Seed) to the result.
	SignificanceRounds int `json:"significance_rounds,omitempty"`
	// Priority orders dispatch in [MinPriority, MaxPriority]; higher runs
	// first. 0 is the default service class.
	Priority int `json:"priority,omitempty"`
}

// Bounds enforced by Spec.Validate.
const (
	MinPriority = -100
	MaxPriority = 100
	// MaxBins bounds the requested histogram resolution; the engine
	// allocates O(bins) per partition representation.
	MaxBins = 10000
	// MaxSignificanceRounds bounds the permutation test; each round
	// shuffles and re-bins the whole score column.
	MaxSignificanceRounds = 10000
	// MaxBudget bounds the exhaustive solvers' budget: a space they admit
	// streams every candidate through the average, so the budget bounds
	// how long one job holds a queue worker.
	MaxBudget = 10_000_000
)

// DecodeSpec parses and validates a submitted job spec. It is strict —
// unknown fields and trailing garbage are rejected — because specs are
// persisted and replayed: a typo silently ignored at submission would
// come back as a surprising audit after a crash. A digest key is refused
// whatever its value: only the server pins content.
func DecodeSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var wire struct {
		Spec
		Digest json.RawMessage `json:"digest"` // shadows Spec.Digest
	}
	if err := dec.Decode(&wire); err != nil {
		return Spec{}, fmt.Errorf("jobs: bad spec json: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, errors.New("jobs: trailing data after spec json")
	}
	if wire.Digest != nil {
		return Spec{}, errors.New("jobs: digest is set by the server, not in a submitted spec")
	}
	if err := wire.Spec.Validate(); err != nil {
		return Spec{}, err
	}
	return wire.Spec, nil
}

// Validate checks the spec's self-contained invariants. Dataset existence
// and attribute names are checked against live server state at submit and
// execution time, not here.
func (s Spec) Validate() error {
	if s.Dataset == "" {
		return errors.New("jobs: spec needs a dataset")
	}
	if len(s.Weights) == 0 {
		return errors.New("jobs: spec needs scoring weights")
	}
	for attr, w := range s.Weights {
		if attr == "" {
			return errors.New("jobs: empty weight attribute name")
		}
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("jobs: invalid weight %v for %q", w, attr)
		}
	}
	if s.Metric != "" {
		if _, err := emd.ParseMetric(s.Metric); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
	}
	if s.Attributes != nil && len(s.Attributes) == 0 {
		return errors.New("jobs: attributes lists none; omit it to audit every attribute")
	}
	for _, a := range s.Attributes {
		if a == "" {
			return errors.New("jobs: empty attribute name")
		}
	}
	if s.Bins < 0 || s.Bins > MaxBins {
		return fmt.Errorf("jobs: bins %d out of range [0, %d]", s.Bins, MaxBins)
	}
	if s.SignificanceRounds < 0 || s.SignificanceRounds > MaxSignificanceRounds {
		return fmt.Errorf("jobs: significance_rounds %d out of range [0, %d]", s.SignificanceRounds, MaxSignificanceRounds)
	}
	if s.Budget < 0 || s.Budget > MaxBudget {
		return fmt.Errorf("jobs: budget %d out of range [0, %d]", s.Budget, MaxBudget)
	}
	if s.Priority < MinPriority || s.Priority > MaxPriority {
		return fmt.Errorf("jobs: priority %d out of range [%d, %d]", s.Priority, MinPriority, MaxPriority)
	}
	return nil
}
