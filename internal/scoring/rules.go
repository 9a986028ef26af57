package scoring

import (
	"errors"
	"fmt"

	"fairrank/internal/dataset"
)

// Predicate decides whether a rule applies to a worker.
type Predicate func(ds *dataset.Dataset, i int) bool

// AttrIs matches workers whose protected attribute `name` has one of the
// given categorical values. Workers match nothing if the attribute is
// missing or not categorical.
func AttrIs(name string, values ...string) Predicate {
	return func(ds *dataset.Dataset, i int) bool {
		a := ds.Schema().ProtectedIndex(name)
		if a < 0 || ds.Schema().Protected[a].Kind != dataset.Categorical {
			return false
		}
		label := ds.Schema().Protected[a].Values[ds.Code(a, i)]
		for _, v := range values {
			if v == label {
				return true
			}
		}
		return false
	}
}

// AttrInRange matches workers whose numeric protected attribute `name` has
// a raw value in [lo, hi).
func AttrInRange(name string, lo, hi float64) Predicate {
	return func(ds *dataset.Dataset, i int) bool {
		a := ds.Schema().ProtectedIndex(name)
		if a < 0 || ds.Schema().Protected[a].Kind != dataset.Numeric {
			return false
		}
		v := ds.RawProtected(a, i)
		return v >= lo && v < hi
	}
}

// And matches when all predicates match.
func And(ps ...Predicate) Predicate {
	return func(ds *dataset.Dataset, i int) bool {
		for _, p := range ps {
			if !p(ds, i) {
				return false
			}
		}
		return true
	}
}

// Or matches when any predicate matches.
func Or(ps ...Predicate) Predicate {
	return func(ds *dataset.Dataset, i int) bool {
		for _, p := range ps {
			if p(ds, i) {
				return true
			}
		}
		return false
	}
}

// Not inverts a predicate.
func Not(p Predicate) Predicate {
	return func(ds *dataset.Dataset, i int) bool { return !p(ds, i) }
}

// Any matches every worker; useful as a default rule.
func Any() Predicate {
	return func(*dataset.Dataset, int) bool { return true }
}

// Rule assigns workers matching When a score drawn uniformly from [Lo, Hi).
type Rule struct {
	// When selects the workers this rule applies to.
	When Predicate
	// Lo and Hi bound the score range assigned to matching workers.
	Lo, Hi float64
}

// RuleFunc is a rule-based scoring function: the first matching rule
// determines the worker's score range, and the concrete score is a
// deterministic pseudo-random draw from that range keyed on (seed, worker).
// This is how the paper's "unfair by design" functions f6–f9 are built:
// e.g. f6(w) > 0.8 if w is male and f6(w) < 0.2 if w is female.
type RuleFunc struct {
	name  string
	rules []Rule
	seed  uint64
}

// NewRuleFunc builds a rule-based scoring function. Rules are evaluated in
// order; workers matching no rule score 0. Each rule's range must satisfy
// 0 <= Lo < Hi <= 1.
func NewRuleFunc(name string, seed uint64, rules []Rule) (*RuleFunc, error) {
	if len(rules) == 0 {
		return nil, errors.New("scoring: rule function needs at least one rule")
	}
	for k, r := range rules {
		if r.When == nil {
			return nil, fmt.Errorf("scoring: rule %d has nil predicate", k)
		}
		if !(r.Lo >= 0 && r.Lo < r.Hi && r.Hi <= 1) {
			return nil, fmt.Errorf("scoring: rule %d has invalid range [%g,%g)", k, r.Lo, r.Hi)
		}
	}
	return &RuleFunc{name: name, rules: rules, seed: seed}, nil
}

// Name implements Func.
func (r *RuleFunc) Name() string { return r.name }

// Score implements Func. The draw is deterministic in (seed, i) so repeated
// scoring of the same worker always yields the same value.
func (r *RuleFunc) Score(ds *dataset.Dataset, i int) float64 {
	for _, rule := range r.rules {
		if rule.When(ds, i) {
			u := hashUnit(r.seed, uint64(i))
			return rule.Lo + float64(u*(rule.Hi-rule.Lo)) // rounded: no multiply-add fuses
		}
	}
	return 0
}

// hashUnit maps (seed, x) to a uniform value in [0,1) via splitmix64.
func hashUnit(seed, x uint64) float64 {
	z := seed ^ (x+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
