package jobs

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/testkit"
)

// TestDedupNeverDropsDistinctSpec is the singleflight safety property:
// over random multisets of specs submitted concurrently, every distinct
// spec hash executes exactly once per cache epoch, every duplicate
// coalesces onto its hash's job, and no distinct spec is ever absorbed
// by another. Seeds replay failures deterministically (testkit.Gen).
func TestDedupNeverDropsDistinctSpec(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			g := testkit.NewGen(seed)
			distinct := g.R.IntRange(2, 12)

			// Build the multiset: each distinct spec appears 1–6 times, in
			// a shuffled submission order, racing across goroutines.
			type entry struct {
				spec Spec
				hash string
			}
			var multiset []entry
			for i := 0; i < distinct; i++ {
				sp := testSpec(fmt.Sprintf("algo-%d", i))
				sp.Seed = g.R.Uint64()
				sp.Priority = g.R.IntRange(-3, 3)
				e := entry{spec: sp, hash: fmt.Sprintf("hash-%d", i)}
				for c := g.R.IntRange(1, 6); c > 0; c-- {
					multiset = append(multiset, e)
				}
			}
			for i := range multiset { // Fisher–Yates
				k := g.R.Intn(i + 1)
				multiset[i], multiset[k] = multiset[k], multiset[i]
			}

			// The executor records which hash each run was for; results are
			// a pure function of the spec so cross-wiring would be visible.
			var mu sync.Mutex
			runsPerHash := map[string]int{}
			exec := func(ctx context.Context, j Job, progress func(core.TraceStep)) ([]byte, error) {
				mu.Lock()
				runsPerHash[j.SpecHash]++
				mu.Unlock()
				return []byte(fmt.Sprintf(`{"seed":%d}`, j.Spec.Seed)), nil
			}
			q := newTestQueue(t, exec, Options{Workers: 4, MaxActive: len(multiset) + 1})

			results := make([]Job, len(multiset))
			var wg sync.WaitGroup
			for i, e := range multiset {
				wg.Add(1)
				go func(i int, e entry) {
					defer wg.Done()
					j, _, err := q.Submit(e.spec, e.hash)
					if err != nil {
						t.Errorf("submit %s: %v", e.hash, err)
						return
					}
					results[i] = j
				}(i, e)
			}
			wg.Wait()

			// Every submission landed on a job carrying its own hash — a
			// distinct spec was never absorbed by a different one.
			jobsPerHash := map[string]string{}
			for i, j := range results {
				if j.SpecHash != multiset[i].hash {
					t.Fatalf("submission %d of %s landed on job %s with hash %s",
						i, multiset[i].hash, j.ID, j.SpecHash)
				}
				if prev, ok := jobsPerHash[j.SpecHash]; ok && prev != j.ID {
					t.Fatalf("hash %s split across jobs %s and %s", j.SpecHash, prev, j.ID)
				}
				jobsPerHash[j.SpecHash] = j.ID
			}
			if len(jobsPerHash) != distinct {
				t.Fatalf("got %d jobs for %d distinct specs", len(jobsPerHash), distinct)
			}
			for hash, id := range jobsPerHash {
				j := waitState(t, q, id, StateDone)
				want := fmt.Sprintf(`{"seed":%d}`, j.Spec.Seed)
				if string(j.Result) != want {
					t.Fatalf("hash %s result = %s, want %s", hash, j.Result, want)
				}
			}

			// Exactly one run per distinct spec: dedup absorbed duplicates
			// without dropping anyone.
			mu.Lock()
			defer mu.Unlock()
			if q.Runs() != int64(distinct) {
				t.Fatalf("runs = %d, want %d", q.Runs(), distinct)
			}
			for hash, n := range runsPerHash {
				if n != 1 {
					t.Fatalf("hash %s ran %d times", hash, n)
				}
			}
		})
	}
}
