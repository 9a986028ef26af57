package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/partition"
)

// A finished audit is stored as a result record and rendered to JSON only
// when a response is written. The record holds what the JSON holds, in
// the order it is served:
//
//	magic 0xFA, version 1
//	flags            1 byte; bit 0: a p-value follows the unfairness
//	unfairness       float64 bits, little endian
//	p-value          float64 bits, when flagged
//	dataset          uvarint length + bytes
//	algorithm        uvarint length + bytes
//	partitions       uvarint count (the header ends here)
//	pieces           uvarint count, then each as uvarint length + bytes
//	per partition    uvarint piece count, the piece indices as uvarints,
//	                 uvarint size; in label order
//
// A partition's label is its pieces joined by labelSep: "Attr=Value" per
// constraint in split order, "ALL" for the root, or a named union's name.
// The record thus renders without the dataset's schema, after the dataset
// is gone.
const (
	resultMagic   = 0xFA
	resultVersion = 1
	flagPValue    = 1
	labelSep      = " ∧ "
	// maxRendered bounds a record's JSON: far past any audit's, whose
	// JSON the store's 64 MiB record limit held before records existed.
	maxRendered = 1 << 30
)

// resultSummary is a result's header: what a GET /v1/jobs page and the
// dashboard show of a done job in place of its partitions.
type resultSummary struct {
	Dataset    string  `json:"dataset,omitempty"`
	Algorithm  string  `json:"algorithm"`
	Unfairness float64 `json:"unfairness"`
	// Partitions counts the result's partitions.
	Partitions int      `json:"partitions"`
	PValue     *float64 `json:"p_value,omitempty"`
}

// encodeResult builds the record of a finished audit of the dataset the
// job names, whose parts res holds over schema (Result.Parts: labels and
// sizes, so a Search result serves). The partitions go in label order.
// Like encoding/json, it refuses a non-finite unfairness or p-value.
func encodeResult(name string, res *core.Result, schema *dataset.Schema, pValue *float64) ([]byte, error) {
	if !finite(res.Unfairness) {
		return nil, fmt.Errorf("server: cannot store unfairness %v", res.Unfairness)
	}
	if pValue != nil && !finite(*pValue) {
		return nil, fmt.Errorf("server: cannot store p-value %v", *pValue)
	}
	parts := res.Parts
	n := 0
	for _, p := range parts {
		n += max(len(p.Constraints), 1)
	}
	pt := newPieceTable(schema)
	// Partition k's piece indices are idx[bounds[k]:bounds[k+1]].
	idx := make([]int32, 0, n)
	bounds := make([]int32, 1, len(parts)+1)
	// Room for the record: the header, the pieces, each partition's
	// counts and every piece index at the width of the largest.
	size := 3 + 16 + uvarintLen(len(name)) + len(name) + uvarintLen(len(res.Algorithm)) + len(res.Algorithm) +
		2*binary.MaxVarintLen64
	for _, p := range parts {
		switch {
		case p.Name != "":
			idx = append(idx, pt.text(p.Name))
		case len(p.Constraints) == 0:
			idx = append(idx, pt.text("ALL"))
		default:
			for _, c := range p.Constraints {
				idx = append(idx, pt.constraint(c))
			}
		}
		size += uvarintLen(len(idx)-int(bounds[len(bounds)-1])) + uvarintLen(p.Size)
		bounds = append(bounds, int32(len(idx)))
	}
	for _, s := range pt.pieces {
		size += uvarintLen(len(s)) + len(s)
	}
	size += len(idx) * uvarintLen(len(pt.pieces))
	order := labelOrder(pt.pieces, idx, bounds)

	out := append(make([]byte, 0, size), resultMagic, resultVersion, 0)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(res.Unfairness))
	if pValue != nil {
		out[2] |= flagPValue
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(*pValue))
	}
	out = appendBytes(out, name)
	out = appendBytes(out, res.Algorithm)
	out = binary.AppendUvarint(out, uint64(len(parts)))
	out = binary.AppendUvarint(out, uint64(len(pt.pieces)))
	for _, s := range pt.pieces {
		out = appendBytes(out, s)
	}
	for _, k := range order {
		pieces := idx[bounds[k]:bounds[k+1]]
		out = binary.AppendUvarint(out, uint64(len(pieces)))
		for _, i := range pieces {
			out = binary.AppendUvarint(out, uint64(i))
		}
		out = binary.AppendUvarint(out, uint64(parts[k].Size))
	}
	return out, nil
}

func uvarintLen(x int) int { return (bits.Len64(uint64(x)|1) + 6) / 7 }

// pieceTable numbers a record's distinct pieces in first-seen order. A
// constraint's piece is looked up by attribute and value in a dense
// table, so its text is built once per record.
type pieceTable struct {
	schema *dataset.Schema
	pieces []string
	byText map[string]int32
	// byValue[base[a]+v] is 1 + the piece of attribute a's value v, 0
	// before it is seen; base[a+1]-base[a] is a's cardinality. Values past
	// it (no search makes them) go by their text.
	base    []int
	byValue []int32
}

func newPieceTable(schema *dataset.Schema) *pieceTable {
	pt := &pieceTable{schema: schema, byText: map[string]int32{}, base: make([]int, len(schema.Protected)+1)}
	for a, attr := range schema.Protected {
		pt.base[a+1] = pt.base[a] + attr.Cardinality()
	}
	pt.byValue = make([]int32, pt.base[len(schema.Protected)])
	return pt
}

func (pt *pieceTable) text(s string) int32 {
	i, ok := pt.byText[s]
	if !ok {
		i = int32(len(pt.pieces))
		pt.byText[s] = i
		pt.pieces = append(pt.pieces, s)
	}
	return i
}

func (pt *pieceTable) constraint(c partition.Constraint) int32 {
	slot := pt.base[c.Attr] + c.Value
	if c.Value < 0 || slot >= pt.base[c.Attr+1] {
		a := pt.schema.Protected[c.Attr]
		return pt.text(a.Name + "=" + a.ValueLabel(c.Value))
	}
	if pt.byValue[slot] == 0 {
		a := pt.schema.Protected[c.Attr]
		pt.byValue[slot] = 1 + pt.text(a.Name+"="+a.ValueLabel(c.Value))
	}
	return pt.byValue[slot] - 1
}

// labelOrder returns the partitions' indices in the order of their
// labels, the pieces' texts joined by labelSep: sort.Slice's order under
// bytes.Compare of the joined labels, ties included, since pdqsort's
// permutation depends only on the comparisons' outcomes. Where the pieces
// have ranks, it compares fixed-width keys of the ranks, each in just the
// bits the largest rank needs, packed big-endian into words and zero past
// a label's end: one word for labels of up to 12 pieces among 31.
// Otherwise it compares whole labels.
func labelOrder(pieces []string, idx, bounds []int32) []int32 {
	order := make([]int32, len(bounds)-1)
	for k := range order {
		order[k] = int32(k)
	}
	rank := pieceRanks(pieces)
	if rank == nil {
		sortByLabel(order, pieces, idx, bounds)
		return order
	}
	bw := bits.Len(uint(len(pieces)))
	per := 64 / max(bw, 1)
	w := 0
	for k := range order {
		w = max(w, int(bounds[k+1]-bounds[k]))
	}
	w = (w + per - 1) / per
	keys := make([]uint64, len(order)*w)
	for k := range order {
		for j, i := range idx[bounds[k]:bounds[k+1]] {
			keys[k*w+j/per] |= rank[i] << (64 - bw*(j%per+1))
		}
	}
	if w == 1 {
		sort.Slice(order, func(i, k int) bool { return keys[order[i]] < keys[order[k]] })
		return order
	}
	sort.Slice(order, func(i, k int) bool {
		a, b := int(order[i])*w, int(order[k])*w
		return slices.Compare(keys[a:a+w], keys[b:b+w]) < 0
	})
	return order
}

// pieceRanks returns each piece's rank in byte order, from 1, or nil when
// ranks cannot order labels. When no piece is a proper prefix of another,
// two labels compare as their sequences of piece ranks do: at the first
// piece that differs, whose bytes differ before either piece ends, or
// else the shorter label first. A prefix sorts right before some piece it
// starts, so checking adjacent pieces settles that. With pieces "New" and
// "New York", though, "New ∧ …" sorts after "New York": nil.
func pieceRanks(pieces []string) []uint64 {
	sorted := make([]int32, len(pieces))
	for i := range sorted {
		sorted[i] = int32(i)
	}
	slices.SortFunc(sorted, func(a, b int32) int { return strings.Compare(pieces[a], pieces[b]) })
	rank := make([]uint64, len(pieces))
	for r, i := range sorted {
		if r > 0 && strings.HasPrefix(pieces[i], pieces[sorted[r-1]]) {
			return nil
		}
		rank[i] = uint64(r + 1)
	}
	return rank
}

// sortByLabel sorts order by the partitions' whole labels.
func sortByLabel(order []int32, pieces []string, idx, bounds []int32) {
	n := 0
	for k := range order {
		n += int(bounds[k+1]-bounds[k]-1) * len(labelSep)
	}
	for _, i := range idx {
		n += len(pieces[i])
	}
	labels := make([]byte, 0, n)
	ends := make([]int, len(order)+1)
	for k := range order {
		for j, i := range idx[bounds[k]:bounds[k+1]] {
			if j > 0 {
				labels = append(labels, labelSep...)
			}
			labels = append(labels, pieces[i]...)
		}
		ends[k+1] = len(labels)
	}
	label := func(k int32) []byte { return labels[ends[k]:ends[k+1]] }
	sort.Slice(order, func(i, k int) bool { return bytes.Compare(label(order[i]), label(order[k])) < 0 })
}

func appendBytes(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

var errBadRecord = errors.New("server: malformed result record")

// recordReader reads a record front to back; the first read past its end
// or of a malformed value sets err, and every read after that returns
// zero.
type recordReader struct {
	b   []byte
	err error
}

func (r *recordReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errBadRecord
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads a uvarint count of items that each take at least one more
// byte, so no count can claim more items than the record has bytes left.
func (r *recordReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.err = errBadRecord
		return 0
	}
	return int(n)
}

func (r *recordReader) str() string {
	n := r.uvarint()
	if r.err != nil || n > uint64(len(r.b)) {
		r.err = errBadRecord
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

func (r *recordReader) float() float64 {
	if r.err != nil || len(r.b) < 8 {
		r.err = errBadRecord
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	if !finite(f) {
		r.err = errBadRecord
	}
	return f
}

// readHeader reads a record's header — its summary — leaving r at its
// pieces.
func readHeader(rec []byte) (resultSummary, *recordReader, error) {
	if len(rec) < 3 || rec[0] != resultMagic || rec[1] != resultVersion || rec[2]&^flagPValue != 0 {
		return resultSummary{}, nil, errBadRecord
	}
	r := &recordReader{b: rec[3:]}
	var sum resultSummary
	sum.Unfairness = r.float()
	if rec[2]&flagPValue != 0 {
		p := r.float()
		sum.PValue = &p
	}
	sum.Dataset = r.str()
	sum.Algorithm = r.str()
	sum.Partitions = r.count()
	return sum, r, r.err
}

// appendResultJSON appends the JSON a result record is served as, byte
// for byte what encoding/json makes of the result. A malformed record
// appends nothing and returns an error.
func appendResultJSON(dst, rec []byte) ([]byte, error) {
	sum, r, err := readHeader(rec)
	if err != nil {
		return dst, err
	}
	// Every piece is escaped once; a label is its pieces' escaped forms
	// joined by the escaped separator. Escaping works rune by rune and
	// the separator starts and ends in ASCII, so that equals escaping the
	// whole label.
	escaped := make([]string, r.count())
	for i := range escaped {
		escaped[i] = jsonString(r.str())
	}
	sep := jsonString(labelSep)
	if r.err != nil {
		return dst, r.err
	}
	// A first pass checks the partitions and sizes the output, so the
	// render appends into room made once and nothing is appended on error.
	parts := r.b
	n := 0
	for range sum.Partitions {
		k := r.count()
		for i := 0; i < k; i++ {
			if idx := r.uvarint(); idx >= uint64(len(escaped)) {
				r.err = errBadRecord
			} else {
				n += len(escaped[idx])
			}
		}
		// Beside its pieces, a partition takes its separators, its fixed
		// bytes and at most 20 digits of size.
		n += max(k-1, 0)*len(sep) + len(`{"label":"","size":},`) + 20
		r.uvarint()
	}
	// Every index may repeat the longest piece, so a malformed record
	// could claim an output no allocation holds.
	if r.err == nil && (len(r.b) > 0 || n > maxRendered) {
		r.err = errBadRecord
	}
	if r.err != nil {
		return dst, r.err
	}
	head, err := json.Marshal(struct {
		Dataset    string  `json:"dataset,omitempty"`
		Algorithm  string  `json:"algorithm"`
		Unfairness float64 `json:"unfairness"`
	}{sum.Dataset, sum.Algorithm, sum.Unfairness})
	if err != nil {
		return dst, err
	}
	var tail []byte
	if sum.PValue != nil {
		if tail, err = json.Marshal(*sum.PValue); err != nil {
			return dst, err
		}
	}
	dst = slices.Grow(dst, len(head)+n+len(tail)+32)
	dst = append(dst, head[:len(head)-1]...)
	dst = append(dst, `,"partitions":[`...)
	r = &recordReader{b: parts}
	for p := range sum.Partitions {
		if p > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"label":"`...)
		for i, k := 0, int(r.uvarint()); i < k; i++ {
			if i > 0 {
				dst = append(dst, sep...)
			}
			dst = append(dst, escaped[r.uvarint()]...)
		}
		dst = append(dst, `","size":`...)
		dst = strconv.AppendUint(dst, r.uvarint(), 10)
		dst = append(dst, '}')
	}
	dst = append(dst, ']')
	if tail != nil {
		dst = append(dst, `,"p_value":`...)
		dst = append(dst, tail...)
	}
	return append(dst, '}'), nil
}

// jsonString returns s escaped as encoding/json escapes a string, without
// the quotes.
func jsonString(s string) string {
	b, _ := json.Marshal(s) // a string always encodes
	return string(b[1 : len(b)-1])
}
