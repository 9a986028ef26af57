package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/partition"
	"fairrank/internal/testkit"
)

// FuzzEvaluatorOracle drives the cached/parallel evaluator with fuzzer-shaped
// score columns and arbitrary (possibly lopsided or empty) index groups and
// checks it against the testkit oracle's rebuild-everything pipeline, in both
// binned and Exact modes. Layout: data[0] picks the bin count, data[1] the
// group count, then alternating score/assignment bytes.
func FuzzEvaluatorOracle(f *testing.F) {
	f.Add([]byte{10, 2, 10, 0, 200, 1, 30, 0, 180, 1})
	f.Add([]byte{1, 5, 100, 0, 100, 1, 100, 2, 100, 3, 100, 4})
	f.Add([]byte{16, 3, 0, 0, 255, 1, 128, 2, 64, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		bins := int(data[0])%20 + 1
		k := int(data[1])%6 + 2
		body := data[2:]
		if len(body) > 128 {
			body = body[:128]
		}
		n := len(body) / 2
		if n < 1 {
			return
		}
		scores := make([]float64, n)
		parts := make([][]int, k)
		for i := 0; i < n; i++ {
			scores[i] = float64(body[2*i]) / 255
			g := int(body[2*i+1]) % k
			parts[g] = append(parts[g], i)
		}

		var o testkit.Oracle
		ds, fn := scoredDataset(t, scores)

		e, err := NewEvaluator(ds, fn, Config{Bins: bins})
		if err != nil {
			t.Fatalf("NewEvaluator: %v", err)
		}
		got := e.AvgPairwise(namedParts(parts))
		want := o.Unfairness(scores, parts, bins)
		if math.Abs(got-want) > testkit.Tol {
			t.Fatalf("binned: evaluator %v, oracle %v (n=%d k=%d bins=%d)", got, want, n, k, bins)
		}

		ex, err := NewEvaluator(ds, fn, Config{Exact: true})
		if err != nil {
			t.Fatalf("NewEvaluator(exact): %v", err)
		}
		gotEx := ex.AvgPairwise(namedParts(parts))
		wantEx := o.ExactUnfairness(scores, parts)
		if math.Abs(gotEx-wantEx) > testkit.Tol {
			t.Fatalf("exact: evaluator %v, oracle %v (n=%d k=%d)", gotEx, wantEx, n, k)
		}
	})
}

// FuzzEnumerate builds a tiny two-attribute dataset from fuzz bytes and
// cross-checks the exhaustive-cells space against the oracle's recursive
// set-partition enumeration: every candidate is a valid disjoint cover,
// groupings are pairwise distinct, and when the budget suffices the
// canonical key set equals the oracle's over the non-empty cells. The
// exhaustive tree space runs on the same dataset as a never-invalid smoke
// check. Layout: data[0]/data[1] pick attribute cardinalities, the rest
// assigns one worker per byte to a cell.
func FuzzEnumerate(f *testing.F) {
	f.Add([]byte{2, 3, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{2, 2, 0, 0, 0, 3})
	f.Add([]byte{3, 3, 8, 1, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cardA := int(data[0])%3 + 2 // 2..4
		cardB := int(data[1])%3 + 2
		rows := data[2:]
		if len(rows) > 12 {
			rows = rows[:12]
		}

		valsA := make([]string, cardA)
		for i := range valsA {
			valsA[i] = fmt.Sprintf("a%d", i)
		}
		valsB := make([]string, cardB)
		for i := range valsB {
			valsB[i] = fmt.Sprintf("b%d", i)
		}
		schema := &dataset.Schema{
			Protected: []dataset.Attribute{dataset.Cat("A", valsA...), dataset.Cat("B", valsB...)},
			Observed:  []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
		}
		b := dataset.NewBuilder(schema)
		cells := map[[2]int]bool{}
		for i, by := range rows {
			cell := int(by) % (cardA * cardB)
			ca, cb := cell/cardB, cell%cardB
			cells[[2]int{ca, cb}] = true
			b.Add(fmt.Sprintf("w%d", i),
				map[string]any{"A": valsA[ca], "B": valsB[cb]},
				map[string]any{"Score": float64(int(by)) / 255})
		}
		ds, err := b.Build()
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		e, err := NewEvaluator(ds, scoreFunc, Config{})
		if err != nil {
			t.Fatalf("evaluator: %v", err)
		}

		var o testkit.Oracle
		nCells := len(cells)
		want := o.Bell(nCells)
		const budget = 5000

		seen := map[string]bool{}
		err = EachCandidate(context.Background(), e, "exhaustive-cells", []int{0, 1}, budget, func(pt *partition.Partitioning) bool {
			if verr := pt.Validate(ds); verr != nil {
				t.Fatalf("invalid grouping: %v", verr)
			}
			key := blocksOf(pt)
			if seen[key] {
				t.Fatalf("duplicate grouping %q", key)
			}
			seen[key] = true
			return true
		})
		switch {
		case errors.Is(err, partition.ErrBudgetExceeded):
			if want <= budget {
				t.Fatalf("budget %d exceeded but Bell(%d)=%d fits", budget, nCells, want)
			}
		case err != nil:
			t.Fatalf("exhaustive-cells: %v", err)
		default:
			// Non-empty cells partition the rows, so distinct cell groupings
			// induce distinct row partitions: exactly Bell(nCells) keys.
			if len(seen) != want {
				t.Fatalf("enumerated %d distinct groupings, Bell(%d)=%d", len(seen), nCells, want)
			}
		}

		if err := EachCandidate(context.Background(), e, "exhaustive", []int{0, 1}, budget, func(pt *partition.Partitioning) bool {
			if verr := pt.Validate(ds); verr != nil {
				t.Fatalf("invalid tree partitioning: %v", verr)
			}
			return true
		}); err != nil && !errors.Is(err, partition.ErrBudgetExceeded) {
			t.Fatalf("exhaustive: %v", err)
		}
	})
}
