package dataset

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"sync"
)

var (
	errSourceNil = errors.New("dataset: nil source")
	errNoWorkers = errors.New("dataset: no workers added")
)

// Dataset is an immutable, columnar store of workers conforming to a
// Schema. Protected attribute values are stored as small integer codes
// (category index or numeric bucket index) so partitioning is a pure
// integer scan; the raw numeric values of protected attributes are kept as
// well for inspection and export.
//
// The columns live in a Source: owned heap slices for datasets built in
// process (Builder, the CSV/JSON/binary decoders), or zero-copy views over
// an mmap'd columnar snapshot for datasets opened with OpenSnapshot. The
// column views are cached here once, so the per-row accessors and the
// column accessors (CodeColumn, ObservedColumn) cost the same for both
// backings — the engine scans mapped blocks exactly as it scans heap
// slices.
type Dataset struct {
	schema *Schema
	n      int
	// src owns the column storage; Close releases it.
	src Source
	// codes[a][i] is worker i's partitioning code for protected attribute a.
	codes [][]uint16
	// rawProtected[a][i] is worker i's raw numeric value for protected
	// attribute a (NaN for categorical attributes).
	rawProtected [][]float64
	// observed[a][i] is worker i's value for observed attribute a.
	observed [][]float64

	// digestOnce guards digest and digestErr: the SHA-256 of the
	// WriteSnapshot stream, computed on the first Digest call.
	digestOnce sync.Once
	digest     [sha256.Size]byte
	digestErr  error

	// cellsOnce guards cells: the protected-cell grouping, computed on
	// the first Cells call.
	cellsOnce sync.Once
	cells     *Cells
}

// Builder incrementally assembles an in-memory Dataset.
type Builder struct {
	schema *Schema
	src    *memSource
	err    error
}

// NewBuilder returns a Builder for the given schema. The schema is
// validated eagerly; an invalid schema poisons the builder and surfaces
// from Build.
func NewBuilder(schema *Schema) *Builder {
	b := &Builder{}
	if err := schema.Validate(); err != nil {
		b.err = err
		return b
	}
	s := schema.Clone()
	b.schema = s
	b.src = &memSource{
		schema:       s,
		codes:        make([][]uint16, len(s.Protected)),
		rawProtected: make([][]float64, len(s.Protected)),
		observed:     make([][]float64, len(s.Observed)),
	}
	return b
}

// Add appends one worker. protected maps protected attribute names to a
// string (categorical) or float64/int (numeric); observed maps observed
// attribute names to float64/int values. Every schema attribute must be
// present. The first error sticks and is reported by Build.
func (b *Builder) Add(id string, protected map[string]any, observed map[string]any) *Builder {
	if b.err != nil {
		return b
	}
	src := b.src
	for a, attr := range b.schema.Protected {
		v, ok := protected[attr.Name]
		if !ok {
			b.err = fmt.Errorf("dataset: worker %q missing protected attribute %q", id, attr.Name)
			return b
		}
		code, raw, err := encodeProtected(attr, v)
		if err != nil {
			b.err = fmt.Errorf("dataset: worker %q: %w", id, err)
			return b
		}
		src.codes[a] = append(src.codes[a], code)
		src.rawProtected[a] = append(src.rawProtected[a], raw)
	}
	for a, attr := range b.schema.Observed {
		v, ok := observed[attr.Name]
		if !ok {
			b.err = fmt.Errorf("dataset: worker %q missing observed attribute %q", id, attr.Name)
			return b
		}
		f, err := toFloat(v)
		if err != nil {
			b.err = fmt.Errorf("dataset: worker %q attribute %q: %w", id, attr.Name, err)
			return b
		}
		src.observed[a] = append(src.observed[a], f)
	}
	src.ids = append(src.ids, id)
	src.n++
	return b
}

func encodeProtected(attr Attribute, v any) (code uint16, raw float64, err error) {
	switch attr.Kind {
	case Categorical:
		s, ok := v.(string)
		if !ok {
			return 0, 0, fmt.Errorf("attribute %q wants a string, got %T", attr.Name, v)
		}
		i := attr.CategoryIndex(s)
		if i < 0 {
			return 0, 0, fmt.Errorf("attribute %q has no value %q", attr.Name, s)
		}
		return uint16(i), math.NaN(), nil
	case Numeric:
		f, err := toFloat(v)
		if err != nil {
			return 0, 0, fmt.Errorf("attribute %q: %w", attr.Name, err)
		}
		if f < attr.Min || f > attr.Max {
			return 0, 0, fmt.Errorf("attribute %q value %g outside [%g,%g]", attr.Name, f, attr.Min, attr.Max)
		}
		return uint16(attr.BucketIndex(f)), f, nil
	}
	return 0, 0, fmt.Errorf("attribute %q has unknown kind", attr.Name)
}

func toFloat(v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, errors.New("value is NaN or infinite")
		}
		return x, nil
	case float32:
		return toFloat(float64(x))
	case int:
		return float64(x), nil
	case int64:
		return float64(x), nil
	default:
		return 0, fmt.Errorf("want a number, got %T", v)
	}
}

// Build finalizes the dataset or reports the first accumulated error.
func (b *Builder) Build() (*Dataset, error) {
	if b.err != nil {
		return nil, b.err
	}
	return FromSource(b.src)
}

// N returns the number of workers.
func (d *Dataset) N() int { return d.n }

// Schema returns the dataset's schema. Callers must not mutate it.
func (d *Dataset) Schema() *Schema { return d.schema }

// Source returns the dataset's backing source.
func (d *Dataset) Source() Source { return d.src }

// Close releases the dataset's backing storage. For snapshot-backed
// datasets this unmaps the snapshot — every column view (including slices
// previously returned by CodeColumn/ObservedColumn) is invalid afterwards.
// For in-memory datasets Close is a no-op. Close is idempotent.
func (d *Dataset) Close() error { return d.src.Close() }

// ID returns worker i's identifier.
func (d *Dataset) ID(i int) string { return d.src.ID(i) }

// Code returns worker i's partitioning code for protected attribute a
// (by index into Schema().Protected).
func (d *Dataset) Code(a, i int) int { return int(d.codes[a][i]) }

// CodeColumn returns the full partitioning-code column of protected
// attribute a. The returned slice is a live view of the backing source
// (mapped bytes for snapshot datasets); callers must not mutate it and
// must not use it after Close. Scans should prefer one CodeColumn call
// plus slice indexing over per-row Code calls.
func (d *Dataset) CodeColumn(a int) []uint16 { return d.codes[a] }

// RawProtected returns worker i's raw numeric value for protected
// attribute a; NaN for categorical attributes.
func (d *Dataset) RawProtected(a, i int) float64 { return d.rawProtected[a][i] }

// RawProtectedColumn returns the full raw-value column of protected
// attribute a, under the same sharing rules as CodeColumn.
func (d *Dataset) RawProtectedColumn(a int) []float64 { return d.rawProtected[a] }

// Observed returns worker i's value for observed attribute a (by index
// into Schema().Observed).
func (d *Dataset) Observed(a, i int) float64 { return d.observed[a][i] }

// ObservedColumn returns the full column of observed attribute a, under
// the same sharing rules as CodeColumn: a live, immutable view of the
// backing source, valid until Close.
func (d *Dataset) ObservedColumn(a int) []float64 { return d.observed[a] }

// ProtectedLabel returns the human-readable partitioning value of worker i
// on protected attribute a.
func (d *Dataset) ProtectedLabel(a, i int) string {
	return d.schema.Protected[a].ValueLabel(d.Code(a, i))
}

// AllIndices returns 0..N-1, the root "partition" containing everyone.
func (d *Dataset) AllIndices() []int {
	idx := make([]int, d.n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Concat returns a new Dataset holding the workers of a followed by the
// workers of b. The two datasets must have structurally identical schemas
// (same attributes, kinds, value lists and ranges); this is how cohorts
// from different sources or time windows are federated for a joint audit.
//
// Concat is copy-on-write over the inputs' Sources: it reads their column
// views and materializes a fully owned in-memory result. The result shares
// no storage with either input — closing a snapshot-backed input
// afterwards does not invalidate it, and it stays valid (and owned)
// regardless of where the inputs' columns lived.
func Concat(a, b *Dataset) (*Dataset, error) {
	if a == nil || b == nil {
		return nil, errors.New("dataset: concat of nil dataset")
	}
	if err := sameSchema(a.schema, b.schema); err != nil {
		return nil, err
	}
	n := a.n + b.n
	src := &memSource{
		schema:       a.schema.Clone(),
		n:            n,
		ids:          make([]string, 0, n),
		codes:        make([][]uint16, len(a.codes)),
		rawProtected: make([][]float64, len(a.rawProtected)),
		observed:     make([][]float64, len(a.observed)),
	}
	for i := 0; i < a.n; i++ {
		src.ids = append(src.ids, a.ID(i))
	}
	for i := 0; i < b.n; i++ {
		src.ids = append(src.ids, b.ID(i))
	}
	for i := range a.codes {
		src.codes[i] = append(append(make([]uint16, 0, n), a.codes[i]...), b.codes[i]...)
		src.rawProtected[i] = append(append(make([]float64, 0, n), a.rawProtected[i]...), b.rawProtected[i]...)
	}
	for i := range a.observed {
		src.observed[i] = append(append(make([]float64, 0, n), a.observed[i]...), b.observed[i]...)
	}
	return FromSource(src)
}

// sameSchema checks structural equality of two schemas.
func sameSchema(a, b *Schema) error {
	if len(a.Protected) != len(b.Protected) || len(a.Observed) != len(b.Observed) {
		return errors.New("dataset: schemas differ in attribute counts")
	}
	check := func(x, y Attribute) error {
		if x.Name != y.Name || x.Kind != y.Kind || x.Min != y.Min || x.Max != y.Max || x.Buckets != y.Buckets {
			return fmt.Errorf("dataset: attribute %q differs between schemas", x.Name)
		}
		if len(x.Values) != len(y.Values) {
			return fmt.Errorf("dataset: attribute %q differs in values", x.Name)
		}
		for i := range x.Values {
			if x.Values[i] != y.Values[i] {
				return fmt.Errorf("dataset: attribute %q differs in values", x.Name)
			}
		}
		return nil
	}
	for i := range a.Protected {
		if err := check(a.Protected[i], b.Protected[i]); err != nil {
			return err
		}
	}
	for i := range a.Observed {
		if err := check(a.Observed[i], b.Observed[i]); err != nil {
			return err
		}
	}
	return nil
}

// Subset returns a new Dataset containing only the workers at the given
// row indices, in that order. The schema is shared structurally (cloned);
// duplicate indices are allowed and produce duplicate workers.
//
// Like Concat, Subset is copy-on-write over the input's Source: the
// selected rows are gathered from the column views into fully owned
// slices, so the result survives a Close of a snapshot-backed input and
// never aliases mapped memory.
func (d *Dataset) Subset(indices []int) (*Dataset, error) {
	if len(indices) == 0 {
		return nil, errors.New("dataset: empty subset")
	}
	src := &memSource{
		schema:       d.schema.Clone(),
		n:            len(indices),
		ids:          make([]string, len(indices)),
		codes:        make([][]uint16, len(d.codes)),
		rawProtected: make([][]float64, len(d.rawProtected)),
		observed:     make([][]float64, len(d.observed)),
	}
	for a := range d.codes {
		src.codes[a] = make([]uint16, len(indices))
		src.rawProtected[a] = make([]float64, len(indices))
	}
	for a := range d.observed {
		src.observed[a] = make([]float64, len(indices))
	}
	for k, i := range indices {
		if i < 0 || i >= d.n {
			return nil, fmt.Errorf("dataset: subset index %d out of range", i)
		}
		src.ids[k] = d.ID(i)
		for a := range d.codes {
			src.codes[a][k] = d.codes[a][i]
			src.rawProtected[a][k] = d.rawProtected[a][i]
		}
		for a := range d.observed {
			src.observed[a][k] = d.observed[a][i]
		}
	}
	return FromSource(src)
}
