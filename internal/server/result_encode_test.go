package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/partition"
	"fairrank/internal/simulate"
)

// headRecordPart and headEncodeResult are the record encoder as it was
// before piece ranks: labels joined into one buffer and sorted by their
// bytes, constraints looked up in a map. They are the oracle the encoder's
// bytes must match, piece numbering and the order of equal labels included.
type headRecordPart struct {
	pieces     []int
	size       int
	start, end int
}

func headEncodeResult(name string, res *core.Result, schema *dataset.Schema, pValue *float64) ([]byte, error) {
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
	parts := make([]headRecordPart, len(res.Partitioning.Parts))
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

// checkHeadBytes requires encodeResult to write exactly the oracle's
// record, or to refuse what the oracle refuses.
func checkHeadBytes(t *testing.T, name string, res *core.Result, schema *dataset.Schema, pValue *float64) {
	t.Helper()
	want, werr := headEncodeResult(name, res, schema, pValue)
	got, err := encodeResult(name, res, schema, pValue)
	if (err != nil) != (werr != nil) || !bytes.Equal(got, want) {
		t.Fatalf("encodeResult = %x (%v)\noracle gives %x (%v)", got, err, want, werr)
	}
}

// seedSpec spells an input of resultFrom: categorical attributes, each
// its name then its values, and partitions, each a conjunction of
// (attribute, value) constraints or, when named, a union's name. Texts
// stay under seven bytes and values under the cardinality plus two, as
// resultFrom reads them.
type seedSpec struct {
	attrs [][]string
	parts []seedPart
}

type seedPart struct {
	name        string
	constraints [][2]int
}

func (s seedSpec) bytes() []byte {
	text := func(b []byte, t string) []byte { return append(append(b, byte(len(t))), t...) }
	b := []byte{byte(len(s.attrs) - 1)}
	for _, a := range s.attrs {
		b = append(text(b, a[0]), 1, byte(len(a)-2))
		for _, v := range a[1:] {
			b = text(b, v)
		}
	}
	b = append(text(b, "alg"), byte(len(s.parts)))
	for i, p := range s.parts {
		b = append(b, byte(len(s.parts)-i)) // distinct sizes, so ties show
		if p.name != "" {
			b = text(append(b, 1), p.name)
			continue
		}
		b = append(b, 2, byte(len(p.constraints)-1))
		for _, c := range p.constraints {
			b = append(b, byte(c[0]), byte(c[1]))
		}
	}
	return b // the dataset name, unfairness and p-value flag read as zeros
}

func conj(cs ...[2]int) seedPart { return seedPart{constraints: cs} }

// labelSeeds are results at the edges of the label order. All but
// equal_labels hold pieces that break a piece-wise comparison of labels:
// one piece a proper prefix of another, so that what follows the prefix —
// a space, a byte below 0x20, the separator — decides the order. They are
// FuzzResultRecord's committed corpus under testdata as well.
var labelSeeds = map[string]seedSpec{
	// "C=N Y" sorts before "C=N ∧ …" and after "C=N".
	"prefix_space": {attrs: [][]string{{"C", "N", "N Y"}},
		parts: []seedPart{conj([2]int{0, 0}, [2]int{0, 1}), conj([2]int{0, 1}), conj([2]int{0, 0})}},
	"trailing_space": {attrs: [][]string{{"A", "z", "z "}, {"B", "b"}},
		parts: []seedPart{conj([2]int{0, 0}, [2]int{1, 0}), conj([2]int{0, 1}), conj([2]int{0, 0}), conj([2]int{1, 0}, [2]int{0, 1})}},
	"control_bytes": {attrs: [][]string{{"A", "x", "x\x01", "x\t", "x\x00"}, {"B", "y"}},
		parts: []seedPart{conj([2]int{0, 0}, [2]int{1, 0}), conj([2]int{0, 1}), conj([2]int{0, 2}), conj([2]int{0, 3}), conj([2]int{0, 0})}},
	// Two partitions labeled "= ∧ =": a value holding the separator, and a
	// conjunction of two "=" pieces.
	"separator_in_value": {attrs: [][]string{{"", "", " ∧ ="}, {"", ""}},
		parts: []seedPart{conj([2]int{0, 0}, [2]int{1, 0}), {name: "N"}, conj([2]int{0, 1}), conj([2]int{0, 0})}},
	// Equal labels with no prefix among the pieces: ties of the rank keys.
	"equal_labels": {attrs: [][]string{{"G", "a", "b"}},
		parts: []seedPart{conj([2]int{0, 1}), conj([2]int{0, 0}), conj([2]int{0, 1}), conj([2]int{0, 0}), conj([2]int{0, 1})}},
	// The fuzzer's own find: pieces " 00000=" and " 00000= 00000(?1)", the
	// second an out-of-range value's label.
	"out_of_range_prefix": {attrs: [][]string{{" 00000", ""}},
		parts: []seedPart{conj([2]int{0, 0}, [2]int{0, 1}), conj([2]int{0, 1}), conj([2]int{0, 0})}},
}

// TestLabelSeedsTakeTheirPath: every label seed decodes to the
// partitions it spells, and all but equal_labels to pieces that hold a
// proper prefix, which the encoder orders by whole labels.
func TestLabelSeedsTakeTheirPath(t *testing.T) {
	for name, s := range labelSeeds {
		_, res, schema, _ := resultFrom(s.bytes())
		if len(res.Partitioning.Parts) != len(s.parts) {
			t.Fatalf("%s: %d partitions, want %d", name, len(res.Partitioning.Parts), len(s.parts))
		}
		pt := newPieceTable(schema)
		for _, p := range res.Partitioning.Parts {
			for _, c := range p.Constraints {
				pt.constraint(c)
			}
			if p.Name != "" {
				pt.text(p.Name)
			}
		}
		prefixed := false
		for _, a := range pt.pieces {
			for _, b := range pt.pieces {
				prefixed = prefixed || (len(a) < len(b) && b[:len(a)] == a)
			}
		}
		if want := name != "equal_labels"; prefixed != want || (pieceRanks(pt.pieces) == nil) != want {
			t.Errorf("%s: pieces %q hold a proper prefix: %v, ranked: %v", name, pt.pieces, prefixed, pieceRanks(pt.pieces) != nil)
		}
	}
}

// TestEncodeResultMatchesHead compares the encoder with the oracle over
// every search's result on Tables 1–3 at seeds 1–5: the five algorithms
// under each table's scoring functions.
func TestEncodeResultMatchesHead(t *testing.T) {
	tables := []func(uint64) (simulate.Spec, error){simulate.Table1Spec, simulate.Table2Spec, simulate.Table3Spec}
	for ti, table := range tables {
		for seed := uint64(1); seed <= 5; seed++ {
			spec, err := table(seed)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := simulate.PaperWorkers(spec.Workers, seed)
			if err != nil {
				t.Fatal(err)
			}
			for fi, f := range spec.Funcs {
				e, err := core.NewEvaluator(ds, f, spec.Config)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range simulate.AllAlgorithms {
					res, err := core.Run(context.Background(), core.Spec{Algorithm: string(a), Evaluator: e, Seed: seed + uint64(fi)*1000})
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("table%d seed %d %s %s", ti+1, seed, f.Name(), a)
					t.Run(name, func(t *testing.T) { checkHeadBytes(t, name, res, ds.Schema(), nil) })
				}
			}
		}
	}
}

// TestEncodeResultMatchesHeadWideKeys covers rank keys of several words:
// conjunctions of 8 to 14 constraints over 42 pieces (six bits a rank, ten
// to a word) that share their first ten pieces in blocks, with and
// without a piece that is another's prefix.
func TestEncodeResultMatchesHeadWideKeys(t *testing.T) {
	for _, first := range []string{"v", "v0"} {
		schema := &dataset.Schema{}
		for a := 0; a < 14; a++ {
			schema.Protected = append(schema.Protected, dataset.Cat(fmt.Sprint("A", a), first, "v1", "v2"))
		}
		res := &core.Result{Algorithm: "unbalanced", Partitioning: &partition.Partitioning{}}
		for i := 0; i < 300; i++ {
			p := &partition.Partition{Indices: make([]int, i%11)}
			for a := 0; a < 8+i%7; a++ {
				v := (i / 100) % 3
				if a >= 8 {
					v = (i / (a - 7)) % 3
				}
				p.Constraints = append(p.Constraints, partition.Constraint{Attr: a, Value: v})
			}
			res.Partitioning.Parts = append(res.Partitioning.Parts, p)
		}
		checkHeadBytes(t, first, res, schema, nil)
	}
}

// FuzzEncodeResultMatchesHead holds the encoder to the oracle's bytes for
// every result resultFrom builds.
func FuzzEncodeResultMatchesHead(f *testing.F) {
	for _, s := range labelSeeds {
		f.Add(s.bytes())
	}
	f.Add([]byte{2, 3, 'G', '<', '"', 1, 2, 2, 'a', '&', 3, 0xe2, 0x80, 0xa8, 0, 3, 'x', '\\', 'y', 5, 4, 0, 2, 3, 1, 2, 2, 6, 1, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		name, res, schema, p := resultFrom(data)
		checkHeadBytes(t, name, res, schema, p)
	})
}

// paperResults are balanced's and unbalanced's results on
// PaperWorkers(7300, 42) under f1, the records a paper-scale audit writes.
func paperResults(tb testing.TB) (*dataset.Schema, map[string]*core.Result) {
	tb.Helper()
	ds, err := simulate.PaperWorkers(7300, 42)
	if err != nil {
		tb.Fatal(err)
	}
	funcs, err := simulate.RandomFunctions()
	if err != nil {
		tb.Fatal(err)
	}
	e, err := core.NewEvaluator(ds, funcs[0], core.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	out := map[string]*core.Result{}
	for _, a := range []string{"balanced", "unbalanced"} {
		if out[a], err = core.Run(context.Background(), core.Spec{Algorithm: a, Evaluator: e, Seed: 42}); err != nil {
			tb.Fatal(err)
		}
	}
	return ds.Schema(), out
}

// BenchmarkEncodeResult encodes the records of paperResults.
func BenchmarkEncodeResult(b *testing.B) {
	schema, results := paperResults(b)
	for _, a := range []string{"balanced", "unbalanced"} {
		res := results[a]
		b.Run(fmt.Sprintf("algo=%s/parts=%d", a, len(res.Partitioning.Parts)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := encodeResult("paper", res, schema, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEncodeResultAllocsFlat: the encoder's allocations depend on the
// distinct pieces, not on the partition count. Results of 50 and of
// 2,000 partitions over the same pieces allocate alike, through the
// rank keys and through whole labels.
func TestEncodeResultAllocsFlat(t *testing.T) {
	schema := &dataset.Schema{Protected: []dataset.Attribute{
		dataset.Cat("Gender", "Male", "Female"),
		dataset.Cat("City", "New", "New York", "Paris"),
		dataset.Num("Age", 18, 68, 5),
	}}
	result := func(n int, cities []int) *core.Result {
		res := &core.Result{Algorithm: "balanced", Partitioning: &partition.Partitioning{}}
		for i := 0; i < n; i++ {
			p := &partition.Partition{Indices: make([]int, 1+i%7)}
			for a, v := range []int{i % 2, cities[i%len(cities)], i % 5} {
				p.Constraints = append(p.Constraints, partition.Constraint{Attr: a, Value: v})
			}
			res.Partitioning.Parts = append(res.Partitioning.Parts, p)
		}
		return res
	}
	// Without "New" no piece is another's proper prefix.
	for _, cities := range [][]int{{1, 2}, {0, 1, 2}} {
		allocs := make([]float64, 2)
		for i, n := range []int{50, 2000} {
			res := result(n, cities)
			allocs[i] = testing.AllocsPerRun(20, func() {
				if _, err := encodeResult("d", res, schema, nil); err != nil {
					t.Fatal(err)
				}
			})
		}
		// Two of slack: under the race detector, large allocations
		// sometimes count one more.
		if allocs[1] > allocs[0]+2 {
			t.Errorf("cities %v: %v allocations for 50 partitions, %v for 2,000", cities, allocs[0], allocs[1])
		}
	}
}
