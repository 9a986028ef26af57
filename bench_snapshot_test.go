// Snapshot-engine benchmarks: the memory-mapped columnar snapshot views
// (DESIGN.md §10) against equivalent heap-resident datasets. Every
// benchmark runs each workload over both sources as adjacent src=mem /
// src=mmap sub-runs so the snapshot gate of `make gates` can hold the
// mmap overhead by per-round pairing — the k-th mem line of a round
// pairs with the k-th mmap line of the same round, cancelling host-load
// drift between rounds.
package fairrank_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fairrank"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/scoring"
	"fairrank/internal/simulate"
)

// snapshotScanWorkers is the population for the raw column-scan benchmark:
// the million-worker regime the snapshot engine exists for. The audit-level
// benchmark stays at paper scale (Table 2's 7300) where whole audits are
// tractable per iteration.
const snapshotScanWorkers = 1_000_000

// snapshotOf round-trips ds through the columnar snapshot format and
// returns the memory-mapped view, unmapped when the benchmark finishes.
func snapshotOf(b *testing.B, ds *dataset.Dataset) *dataset.Dataset {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.snap")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := ds.WriteSnapshot(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	mapped, err := dataset.OpenSnapshot(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		if err := mapped.Close(); err != nil {
			b.Error(err)
		}
	})
	return mapped
}

type snapshotSource struct {
	name string
	ds   *dataset.Dataset
}

// snapshotSources builds the two views of one generated population. Order
// is fixed mem-then-mmap: the gate's pairing depends on the baseline and
// candidate lines alternating in emission order.
func snapshotSources(b *testing.B, n int) []snapshotSource {
	b.Helper()
	ds, err := simulate.PaperWorkers(n, 42)
	if err != nil {
		b.Fatal(err)
	}
	return []snapshotSource{
		{name: "mem", ds: ds},
		{name: "mmap", ds: snapshotOf(b, ds)},
	}
}

// BenchmarkSnapshotScan measures the raw column-scan substrate every audit
// sits on — materializing the full score column (two observed float64
// columns fused by scoring.Scores) plus one protected code-column sweep —
// at million-worker scale, heap-resident versus memory-mapped. This is the
// pure zero-copy comparison: no engine caches or EMD math to hide a
// per-element decode penalty behind.
func BenchmarkSnapshotScan(b *testing.B) {
	n := snapshotScanWorkers
	if testing.Short() {
		n = 100_000
	}
	f, err := fairrank.NewLinearFunc("scan", map[string]float64{
		"LanguageTest": 0.5, "ApprovalRate": 0.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	var sink float64
	for _, src := range snapshotSources(b, n) {
		b.Run(fmt.Sprintf("n=%d/src=%s", n, src.name), func(b *testing.B) {
			// Two float64 observed columns and one uint16 code column
			// per worker and iteration.
			b.SetBytes(int64(n) * 18)
			for i := 0; i < b.N; i++ {
				scores := scoring.Scores(src.ds, f)
				sink += scores[len(scores)-1]
				for _, c := range src.ds.CodeColumn(0) {
					sink += float64(c)
				}
			}
		})
	}
	if sink < 0 {
		b.Fatal("impossible") // keep the scans from being optimized away
	}
}

// BenchmarkSnapshotTable2 runs the Table 2 audit cells (the two
// qualitatively distinct columns, as in BenchmarkTable2) over both sources.
// It is the no-harm gate at audit granularity: once the evaluator's
// histograms are built the engine touches columns the same way regardless
// of backing, so src=mmap must stay within noise of src=mem.
func BenchmarkSnapshotTable2(b *testing.B) {
	funcs, err := simulate.RandomFunctions()
	if err != nil {
		b.Fatal(err)
	}
	sources := snapshotSources(b, population(b, simulate.LargePopulation))
	for _, f := range []scoring.Func{funcs[0], funcs[3]} {
		for _, algo := range simulate.AllAlgorithms {
			for _, src := range sources {
				b.Run(fmt.Sprintf("f=%s,a=%s/src=%s", f.Name(), algo, src.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						e, err := core.NewEvaluator(src.ds, f, core.Config{Bins: 10})
						if err != nil {
							b.Fatal(err)
						}
						res := runAlgo(b, e, algo, 42)
						if res.Partitioning == nil {
							b.Fatal("no partitioning")
						}
					}
				})
			}
		}
	}
}
