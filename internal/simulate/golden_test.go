package simulate

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/rerank"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

const goldenPath = "testdata/golden.txt"

// goldenDoc heads the golden file. It is written by the test, so -update
// keeps it.
const goldenDoc = `# The paper's reproduced numbers, pinned to the bit: every Table 1-3
# cell at seed 42 (algorithm, function, partition count, attributes used,
# unfairness as float64 bits and shortest decimal), Figure 1's
# partitioning and value under four algorithms, the content digests of
# the generated populations, and FA*IR m-tables for a few (k, p, alpha).
#
# Every value here is the same on every architecture: the engine sums
# integers exactly and rounds once, the generators use integer draws and
# rounded products, and no fairrank function fuses a multiply-add
# (make fma-check). Two served values are not pinned here because they
# are not arch-independent: drift.NewDecay's growth factor goes through
# math.Exp2, and marketplace.PositionBias through math.Log2, both of
# which have assembly on some architectures and not on others.
#
# Regenerate with: go test ./internal/simulate -run TestGolden -update
# only for an intended change, and move the spec-hash tag with it.
`

// goldenValue formats a float64 as its bits and its shortest decimal.
func goldenValue(v float64) string {
	return fmt.Sprintf("bits=%016x value=%v", math.Float64bits(v), v)
}

// goldenFile renders the golden content from the current code.
func goldenFile(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(goldenDoc)
	for _, table := range []struct {
		name string
		spec func(uint64) (Spec, error)
	}{{"table1", Table1Spec}, {"table2", Table2Spec}, {"table3", Table3Spec}} {
		spec, err := table.spec(42)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunParallel(spec, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			for _, c := range row.Cells {
				fmt.Fprintf(&buf, "cell %s %s %s parts=%d attrs=%s %s\n", table.name, row.Algorithm, c.Function,
					c.Partitions, strings.Join(c.AttributesUsed, "+"), goldenValue(c.AvgDistance))
			}
		}
	}

	fig, err := Figure1Workers()
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEvaluator(fig, Figure1Func(), core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"unbalanced", "balanced", "exhaustive", "exhaustive-cells"} {
		res, err := core.Run(t.Context(), core.Spec{Algorithm: alg, Evaluator: e, Budget: 10000})
		if err != nil {
			t.Fatal(err)
		}
		labels := make([]string, len(res.Partitioning.Parts))
		for i, p := range res.Partitioning.Parts {
			labels[i] = fmt.Sprintf("%s:%d", p.Label(fig.Schema()), p.Size())
		}
		sort.Strings(labels)
		fmt.Fprintf(&buf, "figure1 %s parts=%s %s\n", alg, strings.Join(labels, "|"), goldenValue(res.Unfairness))
	}

	for _, pop := range []struct {
		name string
		ds   func() (*dataset.Dataset, error)
	}{
		{"PaperWorkers(500,42)", func() (*dataset.Dataset, error) { return PaperWorkers(500, 42) }},
		{"PaperWorkers(7300,42)", func() (*dataset.Dataset, error) { return PaperWorkers(7300, 42) }},
		{"Figure1Workers()", Figure1Workers},
	} {
		ds, err := pop.ds()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "digest %s %x\n", pop.name, ds.Digest())
	}

	for _, m := range []struct{ k, p, alpha float64 }{{10, 0.5, 0.1}, {20, 0.3, 0.1}, {50, 0.5, 0.05}, {100, 0.2, 0.1}} {
		fmt.Fprintf(&buf, "mtable k=%v p=%v alpha=%v %v\n", m.k, m.p, m.alpha, rerank.MTable(int(m.k), m.p, m.alpha))
	}
	return buf.Bytes()
}

// TestGolden pins the reproduced paper numbers bit for bit. A change that
// moves one on purpose regenerates the file with -update.
func TestGolden(t *testing.T) {
	got := goldenFile(t)
	if *updateGolden {
		if err := os.WriteFile(filepath.FromSlash(goldenPath), got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.FromSlash(goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("golden line %d differs:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("golden output has %d lines, file %d", len(gl), len(wl))
}
