package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/eventlog"
	"fairrank/internal/telemetry"
)

// testSpec returns a distinct valid spec per key; the key doubles as the
// "canonical hash" in queue-level tests (the real hash is core.Spec.Hash,
// exercised in the property and server tests).
func testSpec(key string) Spec {
	return Spec{Dataset: "demo", Weights: map[string]float64{"Score": 1}, Algorithm: key}
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, q *Queue, id string, want State) Job {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := q.Get(id); ok && j.State == want {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	j, _ := q.Get(id)
	t.Fatalf("job %s: state %s after timeout, want %s (error %q)", id, j.State, want, j.Error)
	return Job{}
}

func newTestQueue(t *testing.T, exec Executor, opts Options) *Queue {
	t.Helper()
	q, err := New(nil, exec, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = q.Shutdown(ctx)
	})
	return q
}

func TestJobLifecycleDone(t *testing.T) {
	exec := func(ctx context.Context, j Job, progress func(core.TraceStep)) ([]byte, error) {
		progress(core.TraceStep{Attribute: 1, Partitions: 2, Accepted: true})
		return []byte(`{"ok":true}`), nil
	}
	q := newTestQueue(t, exec, Options{Workers: 1})
	j, created, err := q.Submit(testSpec("a"), "h-a")
	if err != nil || !created {
		t.Fatalf("Submit = (%v, %v), want created", created, err)
	}
	if j.State != StateQueued || j.ID == "" {
		t.Fatalf("submitted job = %+v", j)
	}
	got := waitState(t, q, j.ID, StateDone)
	if string(got.Result) != `{"ok":true}` {
		t.Fatalf("result = %s", got.Result)
	}
	if got.Attempt != 1 || got.StartedAt.IsZero() || got.FinishedAt.IsZero() {
		t.Fatalf("lifecycle fields wrong: %+v", got)
	}
	if q.Runs() != 1 {
		t.Fatalf("runs = %d, want 1", q.Runs())
	}
}

func TestDedupSingleflightAndResultCache(t *testing.T) {
	release := make(chan struct{})
	var runs atomic.Int64
	exec := func(ctx context.Context, j Job, progress func(core.TraceStep)) ([]byte, error) {
		runs.Add(1)
		<-release
		return []byte(`"r"`), nil
	}
	q := newTestQueue(t, exec, Options{Workers: 2})
	first, created, err := q.Submit(testSpec("a"), "h")
	if err != nil || !created {
		t.Fatal("first submit should create")
	}
	// While active, identical submissions coalesce.
	for i := 0; i < 5; i++ {
		j, created, err := q.Submit(testSpec("a"), "h")
		if err != nil || created || j.ID != first.ID {
			t.Fatalf("dup submit %d = (%v, %v, %v), want same job", i, j.ID, created, err)
		}
	}
	close(release)
	waitState(t, q, first.ID, StateDone)
	// After completion, the done job answers without a new run.
	j, created, err := q.Submit(testSpec("a"), "h")
	if err != nil || created || j.ID != first.ID || j.State != StateDone {
		t.Fatalf("cached submit = (%+v, %v, %v)", j, created, err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("executor ran %d times, want 1", got)
	}
	// A distinct hash is never absorbed.
	j2, created, err := q.Submit(testSpec("b"), "h2")
	if err != nil || !created || j2.ID == first.ID {
		t.Fatal("distinct spec must create a new job")
	}
	waitState(t, q, j2.ID, StateDone)
}

func TestPriorityDispatchOrder(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var order []string
	exec := func(ctx context.Context, j Job, progress func(core.TraceStep)) ([]byte, error) {
		<-release
		mu.Lock()
		order = append(order, j.SpecHash)
		mu.Unlock()
		return []byte(`1`), nil
	}
	// One worker, blocked on the first job while the rest queue up.
	q := newTestQueue(t, exec, Options{Workers: 1})
	gate, _, _ := q.Submit(testSpec("gate"), "gate")
	waitState(t, q, gate.ID, StateRunning) // worker is pinned; the rest stack up behind it
	submit := func(key string, prio int) Job {
		s := testSpec(key)
		s.Priority = prio
		j, created, err := q.Submit(s, key)
		if err != nil || !created {
			t.Fatalf("submit %s: (%v, %v)", key, created, err)
		}
		return j
	}
	submit("low-1", -1)
	submit("mid-1", 0)
	submit("high", 5)
	submit("mid-2", 0)
	last := submit("low-2", -1)
	close(release)
	waitState(t, q, last.ID, StateDone)
	waitState(t, q, gate.ID, StateDone)
	mu.Lock()
	defer mu.Unlock()
	want := []string{"gate", "high", "mid-1", "mid-2", "low-1", "low-2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
}

// TestFailedRunIsFinal: a run that errors fails its job at once, with
// the executor's error as it was returned, and frees the hash for a new
// job. The executor is a pure function of the spec, so a second run
// could only return the same error.
func TestFailedRunIsFinal(t *testing.T) {
	var runs atomic.Int64
	exec := func(ctx context.Context, j Job, progress func(core.TraceStep)) ([]byte, error) {
		runs.Add(1)
		return nil, errors.New("boom")
	}
	q := newTestQueue(t, exec, Options{Workers: 1, Metrics: telemetry.NewRegistry()})
	j, _, _ := q.Submit(testSpec("a"), "h")
	got := waitState(t, q, j.ID, StateFailed)
	if runs.Load() != 1 {
		t.Fatalf("runs = %d, want 1", runs.Load())
	}
	if got.Attempt != 1 || got.Error != "boom" {
		t.Fatalf("failed job = %+v, want attempt 1 and error %q", got, "boom")
	}
	// The hash must be free again after failure.
	j2, created, err := q.Submit(testSpec("a"), "h")
	if err != nil || !created || j2.ID == j.ID {
		t.Fatalf("resubmit after failure = (%v, %v, %v)", j2.ID, created, err)
	}
	waitState(t, q, j2.ID, StateFailed)
	if runs.Load() != 2 {
		t.Fatalf("runs = %d after the resubmit, want 2", runs.Load())
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	started := make(chan string, 8)
	exec := func(ctx context.Context, j Job, progress func(core.TraceStep)) ([]byte, error) {
		started <- j.ID
		<-ctx.Done()
		return nil, ctx.Err()
	}
	q := newTestQueue(t, exec, Options{Workers: 1})
	running, _, _ := q.Submit(testSpec("r"), "hr")
	<-started
	queued, _, _ := q.Submit(testSpec("q"), "hq")

	// Cancel while queued: immediate terminal state, no run.
	if _, err := q.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, q, queued.ID, StateCanceled)
	if got.Attempt != 0 {
		t.Fatalf("queued-canceled job ran: %+v", got)
	}
	// Cancel while running: context aborts the executor.
	if _, err := q.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, q, running.ID, StateCanceled)
	// Terminal cancel is a conflict; unknown IDs are not found.
	if _, err := q.Cancel(running.ID); !errors.Is(err, ErrTerminal) {
		t.Fatalf("cancel terminal = %v, want ErrTerminal", err)
	}
	if _, err := q.Cancel("job-999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown = %v, want ErrNotFound", err)
	}
	if q.Runs() != 1 {
		t.Fatalf("runs = %d, want 1 (canceled queued job must not run)", q.Runs())
	}
}

func TestAdmissionControlSheds(t *testing.T) {
	release := make(chan struct{})
	exec := func(ctx context.Context, j Job, progress func(core.TraceStep)) ([]byte, error) {
		<-release
		return []byte(`1`), nil
	}
	reg := telemetry.NewRegistry()
	q := newTestQueue(t, exec, Options{Workers: 1, MaxActive: 3, Metrics: reg})
	var last Job
	for i := 0; i < 3; i++ {
		j, created, err := q.Submit(testSpec(fmt.Sprint(i)), fmt.Sprint(i))
		if err != nil || !created {
			t.Fatalf("submit %d: (%v, %v)", i, created, err)
		}
		last = j
	}
	_, _, err := q.Submit(testSpec("overflow"), "overflow")
	var full *FullError
	if !errors.As(err, &full) {
		t.Fatalf("overflow submit error = %v, want FullError", err)
	}
	if full.Active != 3 || full.Limit != 3 || full.RetryAfter < time.Second {
		t.Fatalf("FullError = %+v", full)
	}
	// Dedup of an active hash is not admission: it must still coalesce.
	if _, created, err := q.Submit(testSpec("2"), "2"); err != nil || created {
		t.Fatalf("dedup during full queue = (%v, %v)", created, err)
	}
	close(release)
	waitState(t, q, last.ID, StateDone)
	// Capacity freed: admission opens again.
	j, created, err := q.Submit(testSpec("after"), "after")
	if err != nil || !created {
		t.Fatalf("post-drain submit = (%v, %v)", created, err)
	}
	waitState(t, q, j.ID, StateDone)
}

func TestListPagination(t *testing.T) {
	exec := func(ctx context.Context, j Job, progress func(core.TraceStep)) ([]byte, error) {
		return []byte(`1`), nil
	}
	q := newTestQueue(t, exec, Options{Workers: 1, MaxActive: 100})
	var last Job
	for i := 0; i < 10; i++ {
		last, _, _ = q.Submit(testSpec(fmt.Sprint(i)), fmt.Sprint(i))
	}
	waitState(t, q, last.ID, StateDone)
	for i := 0; i < 10; i++ {
		waitState(t, q, fmt.Sprintf("job-%06d", i+1), StateDone)
	}
	page, total := q.List("", 0, 3)
	if total != 10 || len(page) != 3 {
		t.Fatalf("List(0,3) = %d jobs of %d", len(page), total)
	}
	// Newest first, stable across pages.
	if page[0].ID != "job-000010" || page[2].ID != "job-000008" {
		t.Fatalf("first page = %s..%s", page[0].ID, page[2].ID)
	}
	page2, _ := q.List("", 3, 3)
	if page2[0].ID != "job-000007" {
		t.Fatalf("second page starts at %s", page2[0].ID)
	}
	tail, _ := q.List("", 9, 3)
	if len(tail) != 1 || tail[0].ID != "job-000001" {
		t.Fatalf("tail page = %+v", tail)
	}
	if page, total := q.List(StateDone, 0, 100); total != 10 || len(page) != 10 {
		t.Fatalf("state filter done = %d of %d", len(page), total)
	}
	if _, total := q.List(StateFailed, 0, 100); total != 0 {
		t.Fatalf("state filter failed found %d", total)
	}
	if page, total := q.List("", 50, 10); total != 10 || len(page) != 0 {
		t.Fatalf("past-the-end page = %d of %d", len(page), total)
	}
}

func TestEventsReplayAndLive(t *testing.T) {
	release := make(chan struct{})
	exec := func(ctx context.Context, j Job, progress func(core.TraceStep)) ([]byte, error) {
		progress(core.TraceStep{Attribute: 2, Partitions: 4})
		<-release
		return []byte(`1`), nil
	}
	q := newTestQueue(t, exec, Options{Workers: 1})
	j, _, _ := q.Submit(testSpec("a"), "h")
	waitState(t, q, j.ID, StateRunning)
	sub, err := q.Subscribe(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// Replay carries at least queued, running, and the progress step.
	replay, done := sub.Read(nil)
	var sawProgress bool
	for _, ev := range replay {
		if ev.Type == EventProgress && ev.Step != nil && ev.Step.Attribute == 2 {
			sawProgress = true
		}
	}
	if len(replay) < 3 || !sawProgress || done {
		t.Fatalf("replay = %+v (done %v)", replay, done)
	}
	close(release)
	live := readUntilDone(t, sub)
	if len(live) == 0 {
		t.Fatal("no live event")
	}
	// The stream ends at the terminal transition.
	if final := live[len(live)-1]; final.Type != EventState || final.State != StateDone {
		t.Fatalf("final live event = %+v", final)
	}
	// Subscribing to a finished job synthesizes its terminal event.
	sub2, err := q.Subscribe(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	if replay2, done := sub2.Read(nil); len(replay2) != 1 || replay2[0].State != StateDone || !done {
		t.Fatalf("terminal replay = %+v (done %v)", replay2, done)
	}
	if _, err := q.Subscribe("job-424242"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Subscribe unknown = %v", err)
	}
}

// readUntilDone reads a subscription to the end of its stream, waiting
// on Wake between reads.
func readUntilDone(t *testing.T, sub *eventlog.Sub[Event]) []Event {
	t.Helper()
	var out []Event
	for {
		var done bool
		if out, done = sub.Read(out); done {
			return out
		}
		select {
		case <-sub.Wake():
		case <-time.After(10 * time.Second):
			t.Fatalf("stream not ended after %d events", len(out))
		}
	}
}

// TestEventsStalledSubscriber: a subscriber that never reads neither
// slows nor blocks a run of twice the log's bound of progress events.
// The log keeps only the latest keptEvents, the subscriber then reads
// those, in order, and every event it lost is counted.
func TestEventsStalledSubscriber(t *testing.T) {
	const steps = 2 * keptEvents
	release := make(chan struct{})
	exec := func(ctx context.Context, j Job, progress func(core.TraceStep)) ([]byte, error) {
		<-release
		for i := 0; i < steps; i++ {
			progress(core.TraceStep{Partitions: i})
		}
		return []byte(`1`), nil
	}
	reg := telemetry.NewRegistry()
	q := newTestQueue(t, exec, Options{Workers: 1, Metrics: reg})
	j, _, _ := q.Submit(testSpec("a"), "h")
	waitState(t, q, j.ID, StateRunning)
	stalled, err := q.Subscribe(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	close(release)
	waitState(t, q, j.ID, StateDone)

	// queued, running, the steps and done.
	const published = steps + 3
	if got := reg.Counter(MetricEventsDropped).Value(); got != published-keptEvents {
		t.Fatalf("dropped %d events, want %d", got, published-keptEvents)
	}
	evs, done := stalled.Read(nil)
	if !done || len(evs) != keptEvents {
		t.Fatalf("read %d events (done %v), want the %d kept", len(evs), done, keptEvents)
	}
	for i, ev := range evs {
		if ev.Seq != published-keptEvents+1+i {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, published-keptEvents+1+i)
		}
	}
	if last := evs[len(evs)-1]; last.State != StateDone || evs[len(evs)-2].Step.Partitions != steps-1 {
		t.Fatalf("stream ends %+v, %+v", evs[len(evs)-2], last)
	}
}

// TestWorkerPoolNoGoroutineLeak cancels a pile of running jobs and shuts
// the queue down, then checks the goroutine count settles back — the
// worker pool and event hub must both unwind.
func TestWorkerPoolNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		exec := func(ctx context.Context, j Job, progress func(core.TraceStep)) ([]byte, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		q, err := New(nil, exec, Options{Workers: 4, MaxActive: 32})
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for i := 0; i < 8; i++ {
			j, _, _ := q.Submit(testSpec(fmt.Sprint(i)), fmt.Sprint(i))
			ids = append(ids, j.ID)
		}
		// Hold subscriptions open while canceling, like SSE clients.
		for _, id := range ids {
			sub, err := q.Subscribe(id)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
		}
		for _, id := range ids {
			if _, err := q.Cancel(id); err != nil {
				t.Fatal(err)
			}
		}
		for _, id := range ids {
			waitState(t, q, id, StateCanceled)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := q.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestShutdownDrainsAndRejects(t *testing.T) {
	release := make(chan struct{})
	exec := func(ctx context.Context, j Job, progress func(core.TraceStep)) ([]byte, error) {
		<-release
		return []byte(`1`), nil
	}
	q, err := New(nil, exec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, _, _ := q.Submit(testSpec("a"), "h")
	waitState(t, q, j.ID, StateRunning)
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- q.Shutdown(ctx)
	}()
	// Admission is closed the moment shutdown begins.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, _, err := q.Submit(testSpec("late"), "late")
		if errors.Is(err, ErrShuttingDown) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Submit never started refusing during shutdown")
		}
		time.Sleep(time.Millisecond)
	}
	close(release) // let the in-flight job finish draining
	if err := <-done; err != nil {
		t.Fatalf("drain shutdown = %v", err)
	}
	if got := waitState(t, q, j.ID, StateDone); string(got.Result) != `1` {
		t.Fatalf("drained job = %+v", got)
	}
}
