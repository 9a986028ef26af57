package jobs

import (
	"bytes"
	"context"
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

// TestRecoverTerminalHistory pins that finished jobs reload as history:
// results stay queryable across restarts, and a done job inside its TTL
// re-arms the result cache so resubmission is still a cache hit.
func TestRecoverTerminalHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.db")
	db := openStore(t, path)
	q1, err := New(db, deterministicExec, Options{Workers: 1, ResultTTL: time.Hour})
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
	q2, err := New(db2, deterministicExec, Options{Workers: 1, ResultTTL: time.Hour})
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
	q1, err := New(db, exec, Options{Workers: 1, ResultTTL: time.Hour})
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
	q2, err := New(db2, exec, Options{Workers: 1, ResultTTL: time.Hour})
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

// TestRecoverLegacyEmbeddedResult: a done record written before results
// had their own key embeds its result; it still recovers and answers Get
// with identical bytes.
func TestRecoverLegacyEmbeddedResult(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.db")
	db := openStore(t, path)
	result := `{"algo":"legacy","seed":0}`
	record := fmt.Sprintf(`{"id":"job-000007","spec_hash":"h-legacy","spec":{"dataset":"demo","weights":{"Score":1},"algorithm":"legacy"},`+
		`"priority":0,"state":"done","attempt":1,"max_attempts":3,"enqueued_at":%q,"finished_at":%q,"result":%s}`,
		time.Now().Format(time.RFC3339Nano), time.Now().Format(time.RFC3339Nano), result)
	if err := db.Put(bucketJobs, "job-000007", []byte(record)); err != nil {
		t.Fatal(err)
	}
	q, err := New(db, deterministicExec, Options{Workers: 1, ResultTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = q.Shutdown(ctx)
		db.Close()
	}()
	got, ok := q.Get("job-000007")
	if !ok || got.State != StateDone || string(got.Result) != result {
		t.Fatalf("legacy job = %+v (result %s)", got, got.Result)
	}
	hit, created, err := q.Submit(testSpec("legacy"), "h-legacy")
	if err != nil || created || string(hit.Result) != result {
		t.Fatalf("legacy cache hit = (%v, %v, %s)", created, err, hit.Result)
	}
}

// TestRecoverLegacySnapshotSpec: a record written while a spec could
// name a stored snapshot ("snapshot":"x") recovers as a spec on dataset
// x, and the requeued record is rewritten in that form.
func TestRecoverLegacySnapshotSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.db")
	db := openStore(t, path)
	defer db.Close()
	legacy := `{"id":"job-000007","spec_hash":"h-legacy","spec":{"snapshot":"x","weights":{"a":1}},` +
		`"priority":0,"state":"queued","attempt":0,"max_attempts":3,"enqueued_at":"2026-01-02T03:04:05Z"}`
	if err := db.Put(bucketJobs, "job-000007", []byte(legacy)); err != nil {
		t.Fatal(err)
	}
	q, err := New(db, deterministicExec, Options{Workers: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Kill()
	j, ok := q.Get("job-000007")
	if !ok || j.Spec.Dataset != "x" || j.State != StateQueued {
		t.Fatalf("recovered %+v, %v; want a queued job on dataset x", j, ok)
	}
	raw, _ := db.Get(bucketJobs, "job-000007")
	if !bytes.Contains(raw, []byte(`"dataset":"x"`)) || bytes.Contains(raw, []byte("snapshot")) {
		t.Fatalf("requeued record %s", raw)
	}
}
