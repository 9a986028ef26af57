package jobs

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/store"
)

// benchThroughput pushes b.N distinct jobs through a queue and waits for
// every completion, measuring end-to-end scheduler throughput (submit,
// heap dispatch, persistence, event fanout) with a no-op executor so the
// engine itself stays out of the numbers.
func benchThroughput(b *testing.B, db *store.DB, workers int) {
	b.Helper()
	var wg sync.WaitGroup
	exec := func(ctx context.Context, j Job, progress func(core.TraceStep)) ([]byte, error) {
		wg.Done()
		return []byte(`1`), nil
	}
	q, err := New(db, exec, Options{Workers: workers, MaxActive: b.N + 1})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = q.Shutdown(ctx)
	}()
	wg.Add(b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := q.Submit(testSpec(fmt.Sprint(i)), fmt.Sprintf("bench-%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	wg.Wait()
	b.StopTimer()
}

func BenchmarkJobsThroughput(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("mem/workers=%d", workers), func(b *testing.B) {
			benchThroughput(b, nil, workers)
		})
		b.Run(fmt.Sprintf("durable/workers=%d", workers), func(b *testing.B) {
			db, err := store.Open(filepath.Join(b.TempDir(), "bench.db"), store.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			benchThroughput(b, db, workers)
		})
	}
}

// BenchmarkJobsDedup measures the coalescing fast path: every submission
// after the first hits the active-job dedup without touching the heap or
// the store.
func BenchmarkJobsDedup(b *testing.B) {
	block := make(chan struct{})
	exec := func(ctx context.Context, j Job, progress func(core.TraceStep)) ([]byte, error) {
		<-block
		return []byte(`1`), nil
	}
	q, err := New(nil, exec, Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		close(block)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = q.Shutdown(ctx)
	}()
	if _, _, err := q.Submit(testSpec("dedup"), "dedup"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, created, err := q.Submit(testSpec("dedup"), "dedup"); err != nil || created {
			b.Fatalf("submission %d not coalesced: (%v, %v)", i, created, err)
		}
	}
}
