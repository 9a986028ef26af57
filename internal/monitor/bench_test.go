package monitor

import (
	"fmt"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/rng"
)

// benchSchema induces exactly k groups through one categorical attribute,
// so the benchmarks isolate how per-event cost scales with group count.
func benchSchema(k int) *dataset.Schema {
	vals := make([]string, k)
	for i := range vals {
		vals[i] = fmt.Sprintf("g%02d", i)
	}
	return &dataset.Schema{
		Protected: []dataset.Attribute{dataset.Cat("Group", vals...)},
		Observed:  []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
}

// benchMonitor returns a warm monitor with k populated groups and the
// worker IDs to stream events against.
func benchMonitor(b *testing.B, k, perGroup int) (*Monitor, []string) {
	b.Helper()
	m, err := New(benchSchema(k), []string{"Group"}, 10, 1)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(uint64(k))
	ids := make([]string, 0, k*perGroup)
	for g := 0; g < k; g++ {
		for w := 0; w < perGroup; w++ {
			id := fmt.Sprintf("w%d-%d", g, w)
			prot := map[string]any{"Group": fmt.Sprintf("g%02d", g)}
			if err := m.Join(id, prot, r.Float64()); err != nil {
				b.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	return m, ids
}

// BenchmarkMonitorEvent measures one steady-state stream event — a worker
// re-score followed by an Unfairness read — across group counts. The delta
// path recomputes only the touched group's k-1 distances and O(log k²)
// sum-tree nodes, so per-event cost must grow linearly in k, not
// quadratically like the old full AveragePairwise rebuild (see
// BenchmarkMonitorRecompute for that baseline).
func BenchmarkMonitorEvent(b *testing.B) {
	for _, k := range []int{4, 8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("groups=%d", k), func(b *testing.B) {
			m, ids := benchMonitor(b, k, 8)
			r := rng.New(99)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Rescore(ids[i%len(ids)], r.Float64()); err != nil {
					b.Fatal(err)
				}
				if u := m.Unfairness(); u < 0 {
					b.Fatal("negative unfairness")
				}
			}
		})
	}
}

// BenchmarkMonitorRecompute is the from-scratch O(k²) baseline the old
// monitor paid on every event.
func BenchmarkMonitorRecompute(b *testing.B) {
	for _, k := range []int{4, 8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("groups=%d", k), func(b *testing.B) {
			m, _ := benchMonitor(b, k, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if u := m.Recompute(); u < 0 {
					b.Fatal("negative unfairness")
				}
			}
		})
	}
}
