package dataset

// Source is the backing storage of a Dataset's columns. A Dataset is a
// thin, schema-aware view over a Source; the Source decides where the
// column blocks actually live — owned heap slices (memSource, what Builder
// and the stream decoders produce) or mmap'd regions of a columnar
// snapshot file (snapSource, what OpenSnapshot produces).
//
// Column methods return the full column for one attribute index. The
// returned slices are live views: callers must treat them as immutable,
// and for file-backed sources they are only valid until Close. Dataset
// caches the column views once at construction, so per-row accessors never
// pay an interface dispatch on the hot scan paths.
type Source interface {
	// NumWorkers returns the number of rows in every column.
	NumWorkers() int
	// Schema describes the columns. Callers must not mutate it.
	Schema() *Schema
	// ID returns worker i's identifier. File-backed sources decode it
	// lazily from the mapped id block; the returned string is owned by the
	// caller.
	ID(i int) string
	// CodeColumn returns protected attribute a's partitioning-code column.
	CodeColumn(a int) []uint16
	// RawProtectedColumn returns protected attribute a's raw numeric
	// column (NaN entries for categorical attributes).
	RawProtectedColumn(a int) []float64
	// ObservedColumn returns observed attribute a's value column.
	ObservedColumn(a int) []float64
	// Close releases the source's backing storage. Views obtained from a
	// file-backed source are invalid after Close; closing an in-memory
	// source is a no-op. Close is idempotent.
	Close() error
}

// memSource is the owned-slice Source: every column is a heap slice this
// process owns. Builder, the row decoders (CSV/JSON) and the
// copy-on-write Subset all produce memSources.
type memSource struct {
	schema       *Schema
	n            int
	ids          []string
	codes        [][]uint16
	rawProtected [][]float64
	observed     [][]float64
}

func (m *memSource) NumWorkers() int                    { return m.n }
func (m *memSource) Schema() *Schema                    { return m.schema }
func (m *memSource) ID(i int) string                    { return m.ids[i] }
func (m *memSource) CodeColumn(a int) []uint16          { return m.codes[a] }
func (m *memSource) RawProtectedColumn(a int) []float64 { return m.rawProtected[a] }
func (m *memSource) ObservedColumn(a int) []float64     { return m.observed[a] }
func (m *memSource) Close() error                       { return nil }

// FromSource wraps a Source in a Dataset, caching every column view once
// so the per-row accessors (Code, Observed, ...) index plain slices. The
// Dataset takes ownership of the Source: Dataset.Close closes it, and for
// file-backed sources no Dataset method may be called after Close.
func FromSource(src Source) (*Dataset, error) {
	if src == nil {
		return nil, errSourceNil
	}
	schema := src.Schema()
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if src.NumWorkers() == 0 {
		return nil, errNoWorkers
	}
	d := &Dataset{
		schema:       schema,
		n:            src.NumWorkers(),
		src:          src,
		codes:        make([][]uint16, len(schema.Protected)),
		rawProtected: make([][]float64, len(schema.Protected)),
		observed:     make([][]float64, len(schema.Observed)),
	}
	for a := range schema.Protected {
		d.codes[a] = src.CodeColumn(a)
		d.rawProtected[a] = src.RawProtectedColumn(a)
	}
	for a := range schema.Observed {
		d.observed[a] = src.ObservedColumn(a)
	}
	return d, nil
}
