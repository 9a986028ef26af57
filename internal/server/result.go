package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

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

// recordPart is one partition on its way into a record.
type recordPart struct {
	pieces     []int
	size       int
	start, end int // its label's bytes in encodeResult's label buffer
}

// encodeResult builds the record of a finished audit of the dataset the
// job names, whose partitions res holds over schema. The partitions go in
// label order. Like encoding/json, it refuses a non-finite unfairness or
// p-value.
func encodeResult(name string, res *core.Result, schema *dataset.Schema, pValue *float64) ([]byte, error) {
	if !finite(res.Unfairness) {
		return nil, fmt.Errorf("server: cannot store unfairness %v", res.Unfairness)
	}
	if pValue != nil && !finite(*pValue) {
		return nil, fmt.Errorf("server: cannot store p-value %v", *pValue)
	}
	var (
		pieces       []string
		byText       = map[string]int{}
		byConstraint = map[partition.Constraint]int{}
		labels       []byte
	)
	piece := func(text string) int {
		i, ok := byText[text]
		if !ok {
			i = len(pieces)
			byText[text] = i
			pieces = append(pieces, text)
		}
		return i
	}
	parts := make([]recordPart, len(res.Partitioning.Parts))
	for k, p := range res.Partitioning.Parts {
		rp := &parts[k]
		switch {
		case p.Name != "":
			rp.pieces = []int{piece(p.Name)}
		case len(p.Constraints) == 0:
			rp.pieces = []int{piece("ALL")}
		default:
			rp.pieces = make([]int, len(p.Constraints))
			for i, c := range p.Constraints {
				idx, ok := byConstraint[c]
				if !ok {
					a := schema.Protected[c.Attr]
					idx = piece(a.Name + "=" + a.ValueLabel(c.Value))
					byConstraint[c] = idx
				}
				rp.pieces[i] = idx
			}
		}
		rp.size = p.Size()
		rp.start = len(labels)
		for i, idx := range rp.pieces {
			if i > 0 {
				labels = append(labels, labelSep...)
			}
			labels = append(labels, pieces[idx]...)
		}
		rp.end = len(labels)
	}
	sort.Slice(parts, func(i, k int) bool {
		return bytes.Compare(labels[parts[i].start:parts[i].end], labels[parts[k].start:parts[k].end]) < 0
	})

	out := []byte{resultMagic, resultVersion, 0}
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(res.Unfairness))
	if pValue != nil {
		out[2] |= flagPValue
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(*pValue))
	}
	out = appendBytes(out, name)
	out = appendBytes(out, res.Algorithm)
	out = binary.AppendUvarint(out, uint64(len(parts)))
	out = binary.AppendUvarint(out, uint64(len(pieces)))
	for _, s := range pieces {
		out = appendBytes(out, s)
	}
	for _, rp := range parts {
		out = binary.AppendUvarint(out, uint64(len(rp.pieces)))
		for _, idx := range rp.pieces {
			out = binary.AppendUvarint(out, uint64(idx))
		}
		out = binary.AppendUvarint(out, uint64(rp.size))
	}
	return out, nil
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
