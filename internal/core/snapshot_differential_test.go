package core_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/scoring"
	"fairrank/internal/simulate"
)

// Differential test for the zero-copy snapshot backing: for every
// registered algorithm, an audit over an mmap-backed dataset must be
// bit-identical to the same audit over the in-memory dataset it was
// serialized from — same unfairness bits, same partitioning, same trace,
// and (serially) the same pair-accounting stats. This is the contract that
// lets fairserve audit spilled uploads without ever materializing the
// columns on the heap.

// mappedCopy round-trips ds through a snapshot file and opens it mmap'd.
func mappedCopy(t *testing.T, ds *dataset.Dataset) *dataset.Dataset {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ds.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mapped, err := dataset.OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	return mapped
}

func sameResult(t *testing.T, label string, mem, mmapped *core.Result, wantStats bool) {
	t.Helper()
	if math.Float64bits(mmapped.Unfairness) != math.Float64bits(mem.Unfairness) {
		t.Errorf("%s: unfairness %v (mmap) != %v (mem)", label, mmapped.Unfairness, mem.Unfairness)
	}
	schema := simulate.PaperSchema()
	if got, want := mmapped.Partitioning.Describe(schema), mem.Partitioning.Describe(schema); got != want {
		t.Errorf("%s: partitioning differs\nmmap:\n%s\nmem:\n%s", label, got, want)
	}
	if len(mmapped.Steps) != len(mem.Steps) {
		t.Fatalf("%s: %d trace steps (mmap) != %d (mem)", label, len(mmapped.Steps), len(mem.Steps))
	}
	for i := range mem.Steps {
		ms, ws := mmapped.Steps[i], mem.Steps[i]
		if ms.Attribute != ws.Attribute || ms.Partitions != ws.Partitions || ms.Accepted != ws.Accepted ||
			math.Float64bits(ms.AvgDistance) != math.Float64bits(ws.AvgDistance) {
			t.Errorf("%s: trace step %d differs: %+v (mmap) != %+v (mem)", label, i, ms, ws)
		}
	}
	if wantStats && mmapped.Stats != mem.Stats {
		t.Errorf("%s: stats differ: %+v (mmap) != %+v (mem)", label, mmapped.Stats, mem.Stats)
	}
}

func TestSnapshotAuditBitIdentical(t *testing.T) {
	mem, err := simulate.PaperWorkers(simulate.SmallPopulation, 7)
	if err != nil {
		t.Fatal(err)
	}
	mapped := mappedCopy(t, mem)
	f, err := scoring.NewLinear("f", map[string]float64{"LanguageTest": 0.6, "ApprovalRate": 0.4})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range core.Algorithms() {
		for _, cfg := range []struct {
			name      string
			config    core.Config
			wantStats bool // serial runs have fully deterministic pair accounting
		}{
			{"serial", core.Config{Parallelism: 1}, true},
			{"parallel", core.Config{}, false},
		} {
			spec := core.Spec{
				Algorithm: algo,
				Func:      f,
				Config:    cfg.config,
				Seed:      11,
			}
			if strings.HasPrefix(algo, "exhaustive") {
				// Gender × Country keeps the enumeration space within the
				// default budget; the heuristics cover all six attributes.
				spec.Attrs = []int{0, 1}
			}
			memSpec, mmapSpec := spec, spec
			memSpec.Dataset = mem
			mmapSpec.Dataset = mapped
			memRes, err := core.Run(context.Background(), memSpec)
			if err != nil {
				t.Fatalf("%s/%s mem: %v", algo, cfg.name, err)
			}
			mmapRes, err := core.Run(context.Background(), mmapSpec)
			if err != nil {
				t.Fatalf("%s/%s mmap: %v", algo, cfg.name, err)
			}
			sameResult(t, algo+"/"+cfg.name, memRes, mmapRes, cfg.wantStats)
		}
	}
}

// TestSnapshotSpecHashIdentical: the dedup/cache key of a job must not
// depend on where the dataset's columns live — the same population hashes
// the same whether heap-backed or mapped.
func TestSnapshotSpecHashIdentical(t *testing.T) {
	mem, err := simulate.PaperWorkers(200, 3)
	if err != nil {
		t.Fatal(err)
	}
	mapped := mappedCopy(t, mem)
	f, err := scoring.NewLinear("f", map[string]float64{"LanguageTest": 0.5, "ApprovalRate": 0.5})
	if err != nil {
		t.Fatal(err)
	}
	a := core.Spec{Dataset: mem, Func: f}
	b := core.Spec{Dataset: mapped, Func: f}
	ha, hb := a.Hash(), b.Hash()
	if ha != hb {
		t.Errorf("spec hash differs: mem %s, mmap %s", ha, hb)
	}
}
