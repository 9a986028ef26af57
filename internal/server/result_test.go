package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/partition"
)

// byteSource hands out fuzz bytes, then zeros once they run out.
type byteSource struct{ b []byte }

func (s *byteSource) next() int {
	if len(s.b) == 0 {
		return 0
	}
	v := s.b[0]
	s.b = s.b[1:]
	return int(v)
}

func (s *byteSource) text() string {
	n := min(s.next()%7, len(s.b))
	t := string(s.b[:n])
	s.b = s.b[n:]
	return t
}

func (s *byteSource) float() float64 {
	var b [8]byte
	for i := range b {
		b[i] = byte(s.next())
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// resultFrom builds an audit result from fuzz bytes: a schema of one to
// three attributes with arbitrary names and values, and up to eight
// partitions of every label form — the root, a named union, and
// conjunctions of one to three constraints, out-of-range values included.
func resultFrom(data []byte) (string, *core.Result, *dataset.Schema, *float64) {
	src := &byteSource{b: data}
	schema := &dataset.Schema{}
	for n := 1 + src.next()%3; len(schema.Protected) < n; {
		a := dataset.Attribute{Name: src.text()}
		if src.next()%4 == 0 {
			a.Kind, a.Min, a.Buckets = dataset.Numeric, float64(src.next()-100), 1+src.next()%5
			a.Max = a.Min + float64(1+src.next())/3
		} else {
			for k := 1 + src.next()%4; len(a.Values) < k; {
				a.Values = append(a.Values, src.text())
			}
		}
		schema.Protected = append(schema.Protected, a)
	}
	res := &core.Result{Algorithm: src.text(), Partitioning: &partition.Partitioning{}}
	for n := src.next() % 9; len(res.Partitioning.Parts) < n; {
		p := &partition.Partition{Indices: make([]int, src.next()*3)}
		switch src.next() % 4 {
		case 0:
		case 1:
			p.Name = src.text()
		default:
			for k := 1 + src.next()%3; len(p.Constraints) < k; {
				a := src.next() % len(schema.Protected)
				p.Constraints = append(p.Constraints, partition.Constraint{Attr: a, Value: src.next() % (schema.Protected[a].Cardinality() + 2)})
			}
		}
		res.Partitioning.Parts = append(res.Partitioning.Parts, p)
	}
	name := src.text()
	res.Unfairness = src.float()
	if src.next()%2 == 1 {
		p := src.float()
		return name, withParts(res), schema, &p
	}
	return name, withParts(res), schema, nil
}

// withParts gives a result a test built the Parts that Run gives its
// Partitioning: each part's constraints, name and size.
func withParts(res *core.Result) *core.Result {
	res.Parts = make([]core.Part, len(res.Partitioning.Parts))
	for k, p := range res.Partitioning.Parts {
		res.Parts[k] = core.Part{Constraints: p.Constraints, Name: p.Name, Size: p.Size()}
	}
	return res
}

// checkRecord encodes a result and requires its rendering and summary to
// match the JSON-result oracle, and both to refuse the same results.
func checkRecord(t *testing.T, name string, res *core.Result, schema *dataset.Schema, pValue *float64) {
	t.Helper()
	want, werr := oracleResult(name, res, schema, pValue)
	rec, err := encodeResult(name, res, schema, pValue)
	if (err != nil) != (werr != nil) {
		t.Fatalf("encodeResult error %v, json.Marshal error %v", err, werr)
	}
	if err != nil {
		return
	}
	got, err := appendResultJSON([]byte("prefix"), rec)
	if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("record renders (%v)\n%s\njson.Marshal gives\n%s", err, got, want)
	}
	// A list page serves the summary as JSON: a client must read the
	// record's as it reads the JSON result's.
	sum, _, err := readHeader(rec)
	legacy, lerr := oracleSummary(want)
	if err != nil || lerr != nil || sum.Partitions != len(res.Partitioning.Parts) {
		t.Fatalf("summary %+v (%v), of the JSON %+v (%v), want %d partitions", sum, err, legacy, lerr, len(res.Partitioning.Parts))
	}
	var served [2]resultSummary
	for i, s := range []resultSummary{sum, legacy} {
		raw, _ := json.Marshal(s)
		if err := json.Unmarshal(raw, &served[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(served[0], served[1]) {
		t.Fatalf("summary reads %+v, of the JSON %+v", served[0], served[1])
	}
}

// TestResultRecordMatchesOracle renders records of hand-built results —
// the root alone, named unions, numeric buckets, escapes, no partitions,
// floats encoding/json writes in exponent form — and requires the bytes
// json.Marshal gives for the same result.
func TestResultRecordMatchesOracle(t *testing.T) {
	schema := &dataset.Schema{Protected: []dataset.Attribute{
		dataset.Cat(`A<&>"\`, "x y", "z ", "\x01\t", "Ω"),
		dataset.Num("Age", 18, 68, 4),
	}}
	part := func(size int, cs ...partition.Constraint) *partition.Partition {
		return &partition.Partition{Constraints: cs, Indices: make([]int, size)}
	}
	named := &partition.Partition{Name: "{c0+c2}", Indices: make([]int, 9)}
	p := 0.0125
	tiny := 1e-9
	cases := []struct {
		name   string
		parts  []*partition.Partition
		u      float64
		pValue *float64
	}{
		{"root", []*partition.Partition{part(40)}, 0, nil},
		{"", nil, 0.5, nil},
		{"d", []*partition.Partition{named, {Name: "{c1}", Indices: make([]int, 3)}}, 1e21, &p},
		{"<b>", []*partition.Partition{part(3, partition.Constraint{Attr: 0, Value: 2}, partition.Constraint{Attr: 1, Value: 3}),
			part(5, partition.Constraint{Attr: 0, Value: 0}), part(1, partition.Constraint{Attr: 0, Value: 1}, partition.Constraint{Attr: 1, Value: 0}),
			part(2, partition.Constraint{Attr: 0, Value: 7}), part(8, partition.Constraint{Attr: 1, Value: 1})}, tiny, &tiny},
	}
	for _, c := range cases {
		checkRecord(t, c.name, withParts(&core.Result{Algorithm: "balanced", Unfairness: c.u, Partitioning: &partition.Partitioning{Parts: c.parts}}), schema, c.pValue)
	}
	// The label order's edges: a value that is another's prefix followed
	// by a space, by a byte below 0x20, or by the separator itself, whose
	// label equals a conjunction's; a value ending in a space; and equal
	// labels, which keep the order the oracle's sort leaves them in.
	edges := &dataset.Schema{Protected: []dataset.Attribute{
		dataset.Cat("City", "New", "New York", "New\x1f", "New ∧ Age=[18,30.5)", "New ", "\x00"),
		dataset.Num("Age", 18, 68, 4),
	}}
	city := func(v int) partition.Constraint { return partition.Constraint{Attr: 0, Value: v} }
	age := func(v int) partition.Constraint { return partition.Constraint{Attr: 1, Value: v} }
	for i, parts := range [][]*partition.Partition{
		{part(1, city(1)), part(2, city(0), age(0)), part(3, city(3)), part(4, city(2)), part(5, city(4)),
			part(6, city(0)), part(7, city(0), age(1)), part(8, age(0), city(0)), part(9, city(5)), part(10, city(1))},
		{part(1, age(2)), part(2, age(0)), part(3, age(2)), part(4, age(0), city(1)), part(5, age(2)), part(6, age(0))},
		{part(1, city(4), age(3)), part(2, city(0), age(3)), part(3, city(4)), part(4, city(0))},
	} {
		res := withParts(&core.Result{Algorithm: "balanced", Partitioning: &partition.Partitioning{Parts: parts}})
		checkRecord(t, fmt.Sprint("edges", i), res, edges, nil)
		checkHeadBytes(t, fmt.Sprint("edges", i), res, edges, nil)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		res := &core.Result{Algorithm: "balanced", Unfairness: bad, Partitioning: &partition.Partitioning{}}
		if _, err := encodeResult("d", res, schema, nil); err == nil {
			t.Errorf("unfairness %v stored", bad)
		}
		res.Unfairness = 0
		if _, err := encodeResult("d", res, schema, &bad); err == nil {
			t.Errorf("p-value %v stored", bad)
		}
	}
}

// TestMalformedRecordsFail: a record cut short, of another magic,
// version or flag, holding a non-finite float, a piece index out of
// range, trailing bytes, or claiming an output past maxRendered renders
// to an error and appends nothing.
func TestMalformedRecordsFail(t *testing.T) {
	schema := &dataset.Schema{Protected: []dataset.Attribute{dataset.Cat("G", "a", "b")}}
	res := withParts(&core.Result{Algorithm: "balanced", Unfairness: 0.25, Partitioning: &partition.Partitioning{Parts: []*partition.Partition{
		{Constraints: []partition.Constraint{{Attr: 0, Value: 0}}, Indices: make([]int, 2)},
		{Constraints: []partition.Constraint{{Attr: 0, Value: 1}}, Indices: make([]int, 3)},
	}}})
	good, err := encodeResult("d", res, schema, nil)
	if err != nil {
		t.Fatal(err)
	}
	edit := func(at int, b byte) []byte {
		out := append([]byte(nil), good...)
		out[at] = b
		return out
	}
	huge := append([]byte{resultMagic, resultVersion, 0}, good[3:11]...)
	huge = appendBytes(appendBytes(huge, "d"), "a")
	huge = binary.AppendUvarint(binary.AppendUvarint(huge, 1), 1)
	huge = appendBytes(huge, strings.Repeat("<", 1<<20))
	huge = binary.AppendUvarint(huge, 1<<20)
	huge = binary.AppendUvarint(append(huge, make([]byte, 1<<20)...), 1)
	cases := map[string][]byte{
		"empty":        nil,
		"cut short":    good[:len(good)-1],
		"magic":        edit(0, 'R'),
		"version":      edit(1, 2),
		"flag":         edit(2, 2),
		"NaN":          append(append([]byte(nil), good[:3]...), append([]byte{1, 0, 0, 0, 0, 0, 0xf8, 0x7f}, good[11:]...)...),
		"index":        edit(len(good)-2, 9),
		"trailing":     append(append([]byte(nil), good...), 0),
		"huge":         huge,
		"invalid JSON": []byte(`{"partitions":[}`),
	}
	for name, rec := range cases {
		if out, err := appendResultJSON([]byte("x"), rec); err == nil || string(out) != "x" {
			t.Errorf("%s: rendered %q, %v", name, out, err)
		}
	}
	if out, err := appendResultJSON(nil, good); err != nil || !json.Valid(out) {
		t.Fatalf("unedited record: %q, %v", out, err)
	}
}

// FuzzResultRecord holds the record's two contracts. Arbitrary bytes
// render to an error or to valid JSON, never a panic, and their header
// reads without a panic. And every record the encoder writes, for a result
// built from the same bytes, renders to exactly what json.Marshal gives
// for that result.
func FuzzResultRecord(f *testing.F) {
	for _, seed := range [][]byte{
		{2, 3, 'G', '<', '"', 1, 2, 2, 'a', '&', 3, 0xe2, 0x80, 0xa8, 0, 3, 'x', '\\', 'y', 5, 4, 0, 2, 3, 1, 2, 2, 6, 1, 0, 3},
		{1, 2, 'A', 'B', 0, 10, 20, 7, 4, 1, 1, 2, 9, 3, 1, 0, 0, 1, 2},
		[]byte(`{"algorithm":"balanced","unfairness":0.5,"partitions":[]}`),
		[]byte(`{"algorithm":`),
	} {
		f.Add(seed)
		if rec, err := encodeResult(resultFrom(seed)); err == nil {
			f.Add(rec)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if out, err := appendResultJSON(nil, data); err == nil && !json.Valid(out) {
			t.Fatalf("%q renders to invalid JSON %q", data, out)
		}
		_, _, _ = readHeader(data)
		name, res, schema, p := resultFrom(data)
		checkRecord(t, name, res, schema, p)
	})
}
