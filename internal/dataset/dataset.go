package dataset

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
)

var errNoWorkers = errors.New("dataset: no workers added")

// Dataset is an immutable, columnar store of workers conforming to a
// Schema. Protected attribute values are stored as small integer codes
// (category index or numeric bucket index) so partitioning is a pure
// integer scan; the raw numeric values of protected attributes are kept as
// well for inspection and export.
//
// The columns are owned heap slices for datasets built in process
// (Builder, the CSV/JSON/binary decoders, Subset), or zero-copy views over
// an mmap'd columnar snapshot for datasets opened with OpenSnapshot. The
// per-row accessors and the column accessors (CodeColumn, ObservedColumn)
// cost the same for both backings — the engine scans mapped blocks exactly
// as it scans heap slices.
type Dataset struct {
	schema *Schema
	n      int
	// ids[i] is worker i's identifier in a built dataset. A snapshot keeps
	// its ids as one byte block instead: worker i's is
	// idBytes[idOff[i]:idOff[i+1]], and ids is nil.
	ids     []string
	idOff   []uint32
	idBytes []byte
	// codes[a][i] is worker i's partitioning code for protected attribute a.
	codes [][]uint16
	// rawProtected[a][i] is worker i's raw numeric value for protected
	// attribute a (NaN for categorical attributes).
	rawProtected [][]float64
	// observed[a][i] is worker i's value for observed attribute a.
	observed [][]float64

	// closer releases the backing storage of a snapshot opened from a
	// file, nil otherwise; closeOnce runs it once, since unmapping twice
	// is fatal and Close is idempotent.
	closeOnce sync.Once
	closer    func() error

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
	schema       *Schema
	ids          []string
	codes        [][]uint16
	rawProtected [][]float64
	observed     [][]float64
	err          error
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
	b.codes = make([][]uint16, len(s.Protected))
	b.rawProtected = make([][]float64, len(s.Protected))
	b.observed = make([][]float64, len(s.Observed))
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
		b.codes[a] = append(b.codes[a], code)
		b.rawProtected[a] = append(b.rawProtected[a], raw)
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
		b.observed[a] = append(b.observed[a], f)
	}
	b.ids = append(b.ids, id)
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

// Build finalizes the dataset or reports the first accumulated error. The
// dataset keeps the columns added so far; later Adds do not reach it.
func (b *Builder) Build() (*Dataset, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.ids) == 0 {
		return nil, errNoWorkers
	}
	return &Dataset{
		schema:       b.schema,
		n:            len(b.ids),
		ids:          b.ids,
		codes:        slices.Clone(b.codes),
		rawProtected: slices.Clone(b.rawProtected),
		observed:     slices.Clone(b.observed),
	}, nil
}

// N returns the number of workers.
func (d *Dataset) N() int { return d.n }

// Schema returns the dataset's schema. Callers must not mutate it.
func (d *Dataset) Schema() *Schema { return d.schema }

// Close releases the dataset's backing storage. For snapshot-backed
// datasets this unmaps the snapshot — every column view (including slices
// previously returned by CodeColumn/ObservedColumn) is invalid afterwards.
// For in-memory datasets Close is a no-op. Close is idempotent.
func (d *Dataset) Close() error {
	var err error
	d.closeOnce.Do(func() {
		if d.closer != nil {
			err = d.closer()
		}
	})
	return err
}

// ID returns worker i's identifier. A snapshot's is decoded from its id
// block; the returned string is the caller's.
func (d *Dataset) ID(i int) string {
	if d.ids != nil {
		return d.ids[i]
	}
	return string(d.idBytes[d.idOff[i]:d.idOff[i+1]])
}

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

// Subset returns a new Dataset containing only the workers at the given
// row indices, in that order. The schema is shared structurally (cloned);
// duplicate indices are allowed and produce duplicate workers.
//
// Subset is copy-on-write over the input's columns: the selected rows are
// gathered from the column views into fully owned slices, so the result
// survives a Close of a snapshot-backed input and never aliases mapped
// memory.
func (d *Dataset) Subset(indices []int) (*Dataset, error) {
	if len(indices) == 0 {
		return nil, errors.New("dataset: empty subset")
	}
	sub := &Dataset{
		schema:       d.schema.Clone(),
		n:            len(indices),
		ids:          make([]string, len(indices)),
		codes:        make([][]uint16, len(d.codes)),
		rawProtected: make([][]float64, len(d.rawProtected)),
		observed:     make([][]float64, len(d.observed)),
	}
	for a := range d.codes {
		sub.codes[a] = make([]uint16, len(indices))
		sub.rawProtected[a] = make([]float64, len(indices))
	}
	for a := range d.observed {
		sub.observed[a] = make([]float64, len(indices))
	}
	for k, i := range indices {
		if i < 0 || i >= d.n {
			return nil, fmt.Errorf("dataset: subset index %d out of range", i)
		}
		sub.ids[k] = d.ID(i)
		for a := range d.codes {
			sub.codes[a][k] = d.codes[a][i]
			sub.rawProtected[a][k] = d.rawProtected[a][i]
		}
		for a := range d.observed {
			sub.observed[a][k] = d.observed[a][i]
		}
	}
	return sub, nil
}
