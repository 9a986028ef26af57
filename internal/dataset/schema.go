// Package dataset models the individuals of the paper: workers with
// protected attributes (inherent properties such as gender, country, year
// of birth) and observed attributes (skills such as language-test score and
// approval rate). Data is stored columnar so the partitioning algorithms
// can scan an attribute for thousands of workers without pointer chasing.
//
// Protected attributes may be categorical or numeric. Numeric protected
// attributes (e.g. Year of Birth ∈ [1950, 2009]) are discretized into a
// small number of buckets for partitioning, mirroring the paper's
// exhaustive experiment in which "each attribute had only a maximum of 5
// values".
package dataset

import (
	"errors"
	"fmt"
)

// Kind distinguishes categorical from numeric attributes.
type Kind int

const (
	// Categorical attributes take one of an enumerated set of values.
	Categorical Kind = iota
	// Numeric attributes take a value in [Min, Max] and are bucketized
	// into Buckets equal-width ranges when used for partitioning.
	Numeric
)

// String returns "categorical" or "numeric".
func (k Kind) String() string {
	if k == Numeric {
		return "numeric"
	}
	return "categorical"
}

// Attribute describes one worker attribute.
type Attribute struct {
	// Name is the attribute's unique name within its schema.
	Name string
	// Kind is Categorical or Numeric.
	Kind Kind
	// Values enumerates the categorical values. Ignored for Numeric.
	Values []string
	// Min and Max bound a Numeric attribute's value range (inclusive).
	Min, Max float64
	// Buckets is the number of equal-width ranges a Numeric protected
	// attribute is split into when partitioning. Ignored for Categorical.
	Buckets int
}

// Cat is shorthand for a categorical attribute.
func Cat(name string, values ...string) Attribute {
	return Attribute{Name: name, Kind: Categorical, Values: values}
}

// Num is shorthand for a numeric attribute bucketized into buckets ranges.
func Num(name string, min, max float64, buckets int) Attribute {
	return Attribute{Name: name, Kind: Numeric, Min: min, Max: max, Buckets: buckets}
}

// Cardinality returns the number of partitioning values the attribute has:
// the number of categorical values, or the bucket count for numeric ones.
func (a Attribute) Cardinality() int {
	if a.Kind == Numeric {
		return a.Buckets
	}
	return len(a.Values)
}

// ValueLabel returns a human-readable label for partitioning value i: the
// categorical value itself, or the numeric bucket's range.
func (a Attribute) ValueLabel(i int) string {
	if a.Kind == Categorical {
		if i < 0 || i >= len(a.Values) {
			return fmt.Sprintf("%s(?%d)", a.Name, i)
		}
		return a.Values[i]
	}
	lo, hi := a.BucketBounds(i)
	return fmt.Sprintf("[%g,%g)", lo, hi)
}

// BucketBounds returns the value range of numeric bucket i.
func (a Attribute) BucketBounds(i int) (lo, hi float64) {
	w := (a.Max - a.Min) / float64(a.Buckets)
	// Each product is rounded before its add, so no multiply-add fuses,
	// here or in a caller that inlines this function.
	return a.Min + float64(float64(i)*w), a.Min + float64(float64(i+1)*w)
}

// BucketIndex maps a numeric value onto its bucket, clamping out-of-range
// values to the first/last bucket: values below Min, -Inf and NaN to the
// first, huge values and +Inf to the last.
func (a Attribute) BucketIndex(v float64) int {
	if a.Buckets <= 0 {
		return 0
	}
	w := (a.Max - a.Min) / float64(a.Buckets)
	// Clamp in float space, as histogram.BinIndex does: Go leaves the
	// conversion of an out-of-range float to int to the architecture.
	x := (v - a.Min) / w
	if !(x >= 0) {
		return 0
	}
	if x >= float64(a.Buckets) {
		return a.Buckets - 1
	}
	return int(x)
}

// CategoryIndex returns the index of the categorical value, or -1 if it is
// not one of the attribute's values.
func (a Attribute) CategoryIndex(value string) int {
	for i, v := range a.Values {
		if v == value {
			return i
		}
	}
	return -1
}

// Validate checks the attribute definition for internal consistency.
func (a Attribute) Validate() error {
	if a.Name == "" {
		return errors.New("dataset: attribute with empty name")
	}
	switch a.Kind {
	case Categorical:
		if len(a.Values) == 0 {
			return fmt.Errorf("dataset: categorical attribute %q has no values", a.Name)
		}
		seen := map[string]bool{}
		for _, v := range a.Values {
			if v == "" {
				return fmt.Errorf("dataset: attribute %q has an empty value", a.Name)
			}
			if seen[v] {
				return fmt.Errorf("dataset: attribute %q has duplicate value %q", a.Name, v)
			}
			seen[v] = true
		}
	case Numeric:
		if !(a.Max > a.Min) {
			return fmt.Errorf("dataset: numeric attribute %q has empty range [%g,%g]", a.Name, a.Min, a.Max)
		}
		if a.Buckets < 1 {
			return fmt.Errorf("dataset: numeric attribute %q needs at least one bucket", a.Name)
		}
	default:
		return fmt.Errorf("dataset: attribute %q has unknown kind %d", a.Name, a.Kind)
	}
	return nil
}

// Schema describes a worker population: which attributes are protected
// (used for partitioning) and which are observed (used for scoring).
// Observed attributes must be numeric.
type Schema struct {
	Protected []Attribute
	Observed  []Attribute
}

// Validate checks the schema for consistency: non-empty attribute sets,
// valid attributes, unique names, and numeric observed attributes.
func (s *Schema) Validate() error {
	if s == nil {
		return errors.New("dataset: nil schema")
	}
	if len(s.Protected) == 0 {
		return errors.New("dataset: schema has no protected attributes")
	}
	if len(s.Observed) == 0 {
		return errors.New("dataset: schema has no observed attributes")
	}
	names := map[string]bool{}
	for _, a := range append(append([]Attribute{}, s.Protected...), s.Observed...) {
		if err := a.Validate(); err != nil {
			return err
		}
		if names[a.Name] {
			return fmt.Errorf("dataset: duplicate attribute name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, a := range s.Observed {
		if a.Kind != Numeric {
			return fmt.Errorf("dataset: observed attribute %q must be numeric", a.Name)
		}
	}
	return nil
}

// ProtectedIndex returns the position of the named protected attribute, or
// -1 when absent.
func (s *Schema) ProtectedIndex(name string) int {
	for i, a := range s.Protected {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// ObservedIndex returns the position of the named observed attribute, or -1
// when absent.
func (s *Schema) ObservedIndex(name string) int {
	for i, a := range s.Observed {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	c := &Schema{
		Protected: make([]Attribute, len(s.Protected)),
		Observed:  make([]Attribute, len(s.Observed)),
	}
	copy(c.Protected, s.Protected)
	copy(c.Observed, s.Observed)
	for i := range c.Protected {
		c.Protected[i].Values = append([]string(nil), s.Protected[i].Values...)
	}
	for i := range c.Observed {
		c.Observed[i].Values = append([]string(nil), s.Observed[i].Values...)
	}
	return c
}
