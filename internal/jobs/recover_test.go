package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/store"
)

// deterministicExec is a stand-in for the audit engine that honors the
// executor contract: its output is a pure function of the spec, so a
// recovered re-run must reproduce it bit for bit.
func deterministicExec(ctx context.Context, j Job, progress func(core.TraceStep)) ([]byte, error) {
	return []byte(fmt.Sprintf(`{"algo":%q,"seed":%d}`, j.Spec.Algorithm, j.Spec.Seed)), nil
}

func openStore(t *testing.T, path string) *store.DB {
	t.Helper()
	db, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestRecoverMidRunCrash is the tentpole durability scenario: a job is
// mid-execution when the process dies (Kill suppresses all persistence,
// so the store still says "running" — exactly the power-cut signature).
// A fresh queue over the reopened store must requeue it and complete it
// with a result bit-identical to an uninterrupted run.
func TestRecoverMidRunCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.db")
	db := openStore(t, path)

	started := make(chan struct{})
	blockingExec := func(ctx context.Context, j Job, progress func(core.TraceStep)) ([]byte, error) {
		close(started)
		<-ctx.Done() // hold the job mid-run until the crash
		return nil, ctx.Err()
	}
	q1, err := New(db, blockingExec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec("crash")
	spec.Seed = 99
	j, created, err := q1.Submit(spec, "h-crash")
	if err != nil || !created {
		t.Fatalf("Submit = (%v, %v)", created, err)
	}
	<-started
	if got := waitState(t, q1, j.ID, StateRunning); got.Attempt != 1 {
		t.Fatalf("pre-crash job = %+v", got)
	}
	q1.Kill()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// The store must still carry the running-state record: Kill persisted
	// nothing after the crash point.
	db2 := openStore(t, path)
	raw, ok := db2.Get(bucketJobs, j.ID)
	if !ok || !bytes.Contains(raw, []byte(`"state":"running"`)) {
		t.Fatalf("store record after crash = %s", raw)
	}

	q2, err := New(db2, deterministicExec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, q2, j.ID, StateDone)
	if !got.Recovered {
		t.Fatal("recovered job must be flagged Recovered")
	}
	if got.Attempt != 2 {
		t.Fatalf("attempt after recovery = %d, want 2 (interrupted run counted)", got.Attempt)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	// Bit-identical contract: a clean, never-crashed run of the same spec
	// produces the same bytes.
	clean, err := New(nil, deterministicExec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cj, _, _ := clean.Submit(spec, "h-crash")
	cgot := waitState(t, clean, cj.ID, StateDone)
	if !bytes.Equal(got.Result, cgot.Result) {
		t.Fatalf("recovered result diverged:\n  recovered %s\n  clean     %s", got.Result, cgot.Result)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	_ = clean.Shutdown(ctx2)
}

// TestRecoverQueuedAtCrash covers the other crash signature: jobs that
// never reached a worker (store says "queued") must requeue too.
func TestRecoverQueuedAtCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.db")
	db := openStore(t, path)
	// Workers: -1 starts no workers, so submissions stay durably queued.
	q1, err := New(db, deterministicExec, Options{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	a, _, _ := q1.Submit(testSpec("a"), "ha")
	b, _, _ := q1.Submit(testSpec("b"), "hb")
	q1.Kill()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openStore(t, path)
	defer db2.Close()
	q2, err := New(db2, deterministicExec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = q2.Shutdown(ctx)
	}()
	for _, id := range []string{a.ID, b.ID} {
		got := waitState(t, q2, id, StateDone)
		if !got.Recovered || got.Attempt != 1 {
			t.Fatalf("recovered queued job = %+v", got)
		}
	}
	// ID allocation must continue past recovered records, not collide.
	c, created, err := q2.Submit(testSpec("c"), "hc")
	if err != nil || !created {
		t.Fatalf("post-recovery submit = (%v, %v)", created, err)
	}
	if c.ID != "job-000003" {
		t.Fatalf("post-recovery ID = %s, want job-000003", c.ID)
	}
	waitState(t, q2, c.ID, StateDone)
}

// TestShutdownLeavesQueuedJobsQueued: a drain finishes the running job
// and runs nothing else. With one worker busy on a and b and c queued
// behind it, Shutdown then a's release leave one run, and a queue
// reopened on the same store recovers b and c as queued.
func TestShutdownLeavesQueuedJobsQueued(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.db")
	db := openStore(t, path)
	release := make(chan struct{})
	exec := func(ctx context.Context, j Job, progress func(core.TraceStep)) ([]byte, error) {
		if j.Spec.Algorithm == "a" {
			<-release
		}
		return deterministicExec(ctx, j, progress)
	}
	q1, err := New(db, exec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, _, _ := q1.Submit(testSpec("a"), "ha")
	waitState(t, q1, a.ID, StateRunning)
	b, _, _ := q1.Submit(testSpec("b"), "hb")
	c, _, _ := q1.Submit(testSpec("c"), "hc")
	done := make(chan error, 1)
	go func() { done <- q1.Shutdown(context.Background()) }()
	// a's spec coalesces onto a until admission closes.
	for {
		if _, _, err := q1.Submit(testSpec("a"), "ha"); errors.Is(err, ErrShuttingDown) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := q1.Runs(); got != 1 {
		t.Fatalf("Runs() = %d after the drain, want 1", got)
	}
	waitState(t, q1, a.ID, StateDone)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openStore(t, path)
	defer db2.Close()
	q2, err := New(db2, deterministicExec, Options{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Kill()
	for _, id := range []string{b.ID, c.ID} {
		if got, ok := q2.Get(id); !ok || got.State != StateQueued || !got.Recovered {
			t.Fatalf("job %s after reopening = %+v", id, got)
		}
	}
}

// TestRecoverTerminalHistory pins that finished jobs reload as history:
// results stay queryable across restarts, and a done job answers its
// hash again, so resubmission is still a cache hit.
func TestRecoverTerminalHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.db")
	db := openStore(t, path)
	q1, err := New(db, deterministicExec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	done, _, _ := q1.Submit(testSpec("d"), "hd")
	doneSnap := waitState(t, q1, done.ID, StateDone)
	canceled, _, _ := q1.Submit(Spec{Dataset: "demo", Weights: map[string]float64{"Score": 1}, Algorithm: "x", Priority: -1}, "hx")
	// Cancel may race the worker; accept either queued- or running-cancel.
	if _, err := q1.Cancel(canceled.ID); err != nil && err != ErrTerminal {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = q1.Shutdown(ctx)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openStore(t, path)
	defer db2.Close()
	q2, err := New(db2, deterministicExec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = q2.Shutdown(ctx)
	}()
	got, ok := q2.Get(done.ID)
	if !ok || got.State != StateDone || !bytes.Equal(got.Result, doneSnap.Result) {
		t.Fatalf("reloaded done job = %+v", got)
	}
	// The reloaded result must answer a resubmission without a new run.
	hit, created, err := q2.Submit(testSpec("d"), "hd")
	if err != nil || created || hit.ID != done.ID {
		t.Fatalf("post-restart dedup = (%v, %v, %v)", hit.ID, created, err)
	}
	if q2.Runs() != 0 {
		t.Fatalf("reload triggered %d runs, want 0", q2.Runs())
	}
}

// resultCopies counts the places that hold a result's bytes in memory:
// the queue's own job, and every record of the store's job and result
// buckets.
func resultCopies(q *Queue, db *store.DB, id string, result []byte) int {
	n := 0
	q.mu.Lock()
	if bytes.Contains(q.jobs[id].Result, result) {
		n++
	}
	q.mu.Unlock()
	for _, bucket := range []string{bucketJobs, bucketResults} {
		for _, key := range db.Keys(bucket) {
			if raw, _ := db.Get(bucket, key); bytes.Contains(raw, result) {
				n++
			}
		}
	}
	return n
}

// TestDoneResultHeldOnce: a finished job's result bytes are held once —
// by the store, under the job's result key — not by both the queue's job
// and the store's job record. Get, List, Cancel and a result-cache hit
// still answer with the executor's exact bytes, before and after a
// restart.
func TestDoneResultHeldOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.db")
	db := openStore(t, path)
	result := []byte(`{"unfairness":0.25,"partitions":["held-once"]}`)
	exec := func(ctx context.Context, j Job, progress func(core.TraceStep)) ([]byte, error) {
		return append([]byte(nil), result...), nil
	}
	q1, err := New(db, exec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, _, _ := q1.Submit(testSpec("once"), "h-once")
	waitState(t, q1, j.ID, StateDone)
	if n := resultCopies(q1, db, j.ID, result); n != 1 {
		t.Fatalf("result held %d times, want once", n)
	}
	check := func(q *Queue) {
		t.Helper()
		got, _ := q.Get(j.ID)
		page, _ := q.List(StateDone, 0, 10)
		canceled, cerr := q.Cancel(j.ID)
		hit, created, err := q.Submit(testSpec("once"), "h-once")
		if err != nil || created || cerr != ErrTerminal || len(page) != 1 {
			t.Fatalf("resubmit = (%v, %v), cancel = %v, list = %d jobs", created, err, cerr, len(page))
		}
		for name, v := range map[string]Job{"Get": got, "List": page[0], "Cancel": canceled, "cache hit": hit} {
			if !bytes.Equal(v.Result, result) {
				t.Fatalf("%s result = %s, want %s", name, v.Result, result)
			}
		}
	}
	check(q1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = q1.Shutdown(ctx)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := openStore(t, path)
	defer db2.Close()
	q2, err := New(db2, exec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Shutdown(ctx)
	check(q2)
	if n := resultCopies(q2, db2, j.ID, result); n != 1 {
		t.Fatalf("recovered result held %d times, want once", n)
	}
	if q2.Runs() != 0 {
		t.Fatalf("recovery ran %d jobs, want 0", q2.Runs())
	}
}

// TestFailedResultPutEmbedsResult: when a done job's result cannot be
// stored under its own key, the queue keeps it on the job and its record
// embeds it. Result bytes that are not JSON still encode into the
// record, and the job recovers and answers Get and a result-cache hit
// with the same bytes.
func TestFailedResultPutEmbedsResult(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.db")
	db := openStore(t, path)
	defer db.Close()
	result := []byte{0xFA, 1, 0, '{', 0xff, '"', '\\', 0x80, 0}
	q1, err := New(db, deterministicExec, Options{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	// The record finishLocked persists after storeResult reports failure.
	q1.persist(Job{ID: "job-000003", SpecHash: "h-bin", Spec: testSpec("bin"), State: StateDone,
		Attempt: 1, EnqueuedAt: now, StartedAt: now, FinishedAt: now, Result: result})
	q1.Kill()
	if _, ok := db.Get(bucketJobs, "job-000003"); !ok {
		t.Fatal("no record for a job whose result put failed")
	}

	q2, err := New(db, deterministicExec, Options{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Kill()
	got, ok := q2.Get("job-000003")
	if !ok || got.State != StateDone || !bytes.Equal(got.Result, result) {
		t.Fatalf("recovered %+v, %v; want done with result %q", got, ok, result)
	}
	hit, created, err := q2.Submit(testSpec("bin"), "h-bin")
	if err != nil || created || !bytes.Equal(hit.Result, result) {
		t.Fatalf("cache hit = (%v, %v, %q)", created, err, hit.Result)
	}
}

// TestRecoverOldDoneResult: a done job answers its hash for as long as
// the store keeps it, whatever its age. A record finished 11 minutes
// before boot answers a resubmit without a run.
func TestRecoverOldDoneResult(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.db")
	db := openStore(t, path)
	defer db.Close()
	q1, err := New(db, deterministicExec, Options{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	finished := time.Now().Add(-11 * time.Minute)
	q1.persist(Job{ID: "job-000001", SpecHash: "h-old", Spec: testSpec("old"), State: StateDone,
		Attempt: 1, EnqueuedAt: finished, StartedAt: finished, FinishedAt: finished, Result: []byte(`"old"`)})
	q1.Kill()

	q2, err := New(db, deterministicExec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Kill()
	hit, created, err := q2.Submit(testSpec("old"), "h-old")
	if err != nil || created || hit.ID != "job-000001" || string(hit.Result) != `"old"` {
		t.Fatalf("resubmit of an 11-minute-old result = (%s, %v, %v, %s)", hit.ID, created, err, hit.Result)
	}
	if q2.Runs() != 0 {
		t.Fatalf("resubmit ran %d jobs, want 0", q2.Runs())
	}
}
