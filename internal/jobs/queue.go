package jobs

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/eventlog"
	"fairrank/internal/store"
	"fairrank/internal/telemetry"
)

// Executor runs a job. It receives a snapshot of the job (not a
// live pointer), must honor ctx cancellation, and returns the result
// bytes to store on success. progress forwards engine TraceSteps to the
// job's event stream; it is safe to ignore.
//
// Executors must be deterministic in the job's Spec: crash recovery
// re-runs interrupted jobs and promises bit-identical results, so the
// output must not embed wall-clock time, attempt counts, or other
// run-local state. For the same reason a run's error is final: the job
// fails with it, as a second run of the same spec would return it again.
type Executor func(ctx context.Context, j Job, progress func(core.TraceStep)) ([]byte, error)

// Options configures a Queue.
type Options struct {
	// Workers is the worker-pool size. 0 selects DefaultWorkers; negative
	// starts no workers (jobs queue but never run — useful in tests and
	// for drain-only replicas).
	Workers int
	// MaxActive bounds admission: once this many jobs are queued or
	// running, Submit sheds with a FullError. 0 selects DefaultMaxActive.
	MaxActive int
	// Metrics, when non-nil, receives the queue's telemetry series (see
	// the Metric* names in this package).
	Metrics *telemetry.Registry
	// Logf receives scheduler log lines (e.g. log.Printf); nil disables.
	Logf func(format string, args ...any)
}

// Defaults for the zero Options.
const (
	DefaultWorkers   = 2
	DefaultMaxActive = 64
)

// bucketJobs is the store bucket holding one JSON record per job.
const bucketJobs = "jobs"

// bucketResults holds each done job's result bytes under its job ID. A
// done job's record omits its result and the queue drops its own copy,
// so every result is held in memory once: by the store, which hands out
// copies. A record whose result put failed embeds the result instead.
const bucketResults = "results"

// record is a job's persisted form: the job's fields, plus its result,
// as a base64 JSON string, when the result is not stored under its own
// key.
type record struct {
	Job
	Result []byte `json:"result,omitempty"`
}

func encodeRecord(snap Job) ([]byte, error) {
	return json.Marshal(record{Job: snap, Result: snap.Result})
}

func decodeRecord(raw []byte) (Job, error) {
	var rec record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return Job{}, err
	}
	rec.Job.Result = rec.Result
	return rec.Job, nil
}

// LegacyRecord finds a record in the queue's buckets of a shape this
// version no longer reads: a result stored as JSON, under its own key or
// embedded in its job's record, a spec naming a snapshot instead of a
// dataset, or a queued or running job without a pinned digest. It
// returns the record's bucket and key and names its shape, or returns an
// empty shape. A record that does not decode is left to recovery, which
// reports it corrupt.
func LegacyRecord(db *store.DB) (bucket, key, shape string) {
	for _, id := range db.Keys(bucketResults) {
		if raw, _ := db.Get(bucketResults, id); len(raw) > 0 && raw[0] == '{' {
			return bucketResults, id, "a result stored as JSON"
		}
	}
	for _, id := range db.Keys(bucketJobs) {
		raw, _ := db.Get(bucketJobs, id)
		var rec struct {
			State  State           `json:"state"`
			Result json.RawMessage `json:"result"`
			Spec   struct {
				Dataset  string `json:"dataset"`
				Digest   string `json:"digest"`
				Snapshot string `json:"snapshot"`
			} `json:"spec"`
		}
		switch {
		case json.Unmarshal(raw, &rec) != nil:
		case rec.Spec.Dataset == "" && rec.Spec.Snapshot != "":
			return bucketJobs, id, "a job spec naming a snapshot instead of a dataset"
		case !rec.State.Terminal() && rec.Spec.Digest == "":
			return bucketJobs, id, "a queued or running job without a pinned digest"
		case len(rec.Result) > 0 && rec.Result[0] == '{':
			return bucketJobs, id, "a job record embedding its result as JSON"
		}
	}
	return "", "", ""
}

// ErrNotFound is returned for operations on unknown job IDs.
var ErrNotFound = errors.New("jobs: no such job")

// ErrTerminal is returned when canceling a job that already finished.
var ErrTerminal = errors.New("jobs: job already in a terminal state")

// ErrShuttingDown is returned by Submit after Shutdown began.
var ErrShuttingDown = errors.New("jobs: queue is shutting down")

// FullError is returned by Submit when admission control sheds the job;
// RetryAfter is the queue's estimate of when capacity frees up (the HTTP
// layer surfaces it as a Retry-After header on the 429).
type FullError struct {
	Active     int
	Limit      int
	RetryAfter time.Duration
}

func (e *FullError) Error() string {
	return fmt.Sprintf("jobs: queue full (%d/%d active), retry in %s", e.Active, e.Limit, e.RetryAfter)
}

// Queue is the durable audit scheduler. Create with New; it recovers
// persisted jobs and starts its worker pool immediately.
type Queue struct {
	exec Executor
	db   *store.DB // nil = memory-only (tests)
	opts Options
	met  queueMetrics
	hub  *eventHub
	logf func(string, ...any)

	baseCtx    context.Context // parent of every job context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond // signals: heap non-empty, or closed
	jobs     map[string]*Job
	byHash   map[string]*Job // spec hash → the queued, running or done job that answers it
	claims   map[string]*Job // steal-claim token → parked job (steal.go)
	ready    jobHeap
	queuedN  int // jobs in StateQueued (heaped, claimed, or parked by shutdown)
	runningN int
	seq      uint64
	idSeq    uint64
	closed   bool

	killed  atomic.Bool // crash simulation: suppress persistence on exit
	runsN   atomic.Int64
	avgRun  atomic.Int64 // EWMA run duration, nanoseconds
	workers sync.WaitGroup
}

// New opens a queue over db (which may be nil for a memory-only queue),
// recovers persisted jobs — terminal records reload for listing, done
// ones answer their spec hash, queued/running records requeue — and
// starts the worker pool.
func New(db *store.DB, exec Executor, opts Options) (*Queue, error) {
	if exec == nil {
		return nil, errors.New("jobs: New requires an executor")
	}
	if opts.Workers == 0 {
		opts.Workers = DefaultWorkers
	}
	if opts.MaxActive <= 0 {
		opts.MaxActive = DefaultMaxActive
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue{
		exec:       exec,
		db:         db,
		opts:       opts,
		logf:       logf,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*Job{},
		byHash:     map[string]*Job{},
		claims:     map[string]*Job{},
	}
	q.cond = sync.NewCond(&q.mu)
	q.hub = newEventHub(func(n int64) { q.met.eventsDropped.Add(n) })
	q.met = newQueueMetrics(opts.Metrics, q.oldestQueuedAge)
	if err := q.recover(); err != nil {
		cancel()
		return nil, err
	}
	for i := 0; i < opts.Workers; i++ {
		q.workers.Add(1)
		go q.worker()
	}
	return q, nil
}

// recover replays the jobs bucket in ID order: terminal jobs reload as
// history, and every done one answers its spec hash again, whatever its
// age; queued and running jobs — the crash signature — requeue for
// another run.
func (q *Queue) recover() error {
	if q.db == nil {
		return nil
	}
	now := time.Now()
	ids := q.db.Keys(bucketJobs)
	for _, id := range ids {
		raw, ok := q.db.Get(bucketJobs, id)
		if !ok {
			continue
		}
		j, err := decodeRecord(raw)
		if err != nil {
			return fmt.Errorf("jobs: corrupt job record %q: %w", id, err)
		}
		if j.ID != id {
			return fmt.Errorf("jobs: job record %q claims id %q", id, j.ID)
		}
		q.idSeq = max(q.idSeq, parseJobSeq(id))
		job := &j
		job.seq = q.nextSeq()
		q.jobs[id] = job
		switch {
		case job.State == StateDone:
			q.byHash[job.SpecHash] = job
		case job.State.Terminal():
			// failed, canceled or stolen: history only.
		default:
			// queued or running at crash time: requeue. Attempt stays as
			// recorded — the interrupted run already counted when it
			// started, and the next run will increment again.
			job.State = StateQueued
			job.Recovered = true
			if prev := q.byHash[job.SpecHash]; prev != nil && prev.State == StateQueued {
				// Two active records with one hash cannot happen through
				// Submit; tolerate a hand-edited store by keeping the
				// earlier job and failing the later duplicate.
				q.logf("jobs: recovery: %s duplicates active spec of %s; marking failed", id, prev.ID)
				job.State = StateFailed
				job.Error = "duplicate active spec record at recovery"
				job.FinishedAt = now
				q.persist(job.snapshot())
				continue
			}
			// An older done job of the same hash gives its entry up;
			// this one takes it back when it finishes.
			q.byHash[job.SpecHash] = job
			q.queuedN++
			heap.Push(&q.ready, job)
			q.persist(job.snapshot())
			q.met.recovered.Inc()
		}
	}
	q.syncDepth()
	return nil
}

// parseJobSeq extracts the numeric suffix of "job-%06d" IDs (0 when the
// ID does not match, which only happens on hand-edited stores).
func parseJobSeq(id string) uint64 {
	var n uint64
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return 0
	}
	return n
}

func (q *Queue) nextSeq() uint64 {
	q.seq++
	return q.seq
}

// Submit admits one audit spec under its canonical hash. The returned
// snapshot is the job to poll; created reports whether a new job was
// enqueued (false when the submission coalesced onto an active job or a
// done job's result). Errors: ErrShuttingDown after Shutdown, *FullError
// when admission control sheds.
func (q *Queue) Submit(spec Spec, specHash string) (Job, bool, error) {
	if specHash == "" {
		return Job{}, false, errors.New("jobs: Submit requires a spec hash")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return Job{}, false, ErrShuttingDown
	}
	// An active job with this hash absorbs the submission (singleflight);
	// a done one answers it with its result.
	if j := q.byHash[specHash]; j != nil {
		if j.State == StateDone {
			q.met.cacheHits.Inc()
		} else {
			q.met.deduped.Inc()
		}
		return q.view(j), false, nil
	}
	active := q.queuedN + q.runningN
	if active >= q.opts.MaxActive {
		q.met.shed.Inc()
		return Job{}, false, &FullError{Active: active, Limit: q.opts.MaxActive, RetryAfter: q.retryAfterLocked()}
	}
	q.idSeq++
	j := &Job{
		ID:         fmt.Sprintf("job-%06d", q.idSeq),
		SpecHash:   specHash,
		Spec:       spec,
		Priority:   spec.Priority,
		State:      StateQueued,
		EnqueuedAt: time.Now(),
		seq:        q.nextSeq(),
	}
	q.jobs[j.ID] = j
	q.byHash[specHash] = j
	q.queuedN++
	heap.Push(&q.ready, j)
	q.syncDepth()
	q.met.submitted.Inc()
	q.persist(j.snapshot())
	q.publishState(j)
	q.cond.Signal()
	return j.snapshot(), true, nil
}

// retryAfterLocked estimates when a shed client should retry: the queue's
// expected drain time for its current backlog, clamped to [1s, 120s].
func (q *Queue) retryAfterLocked() time.Duration {
	avg := time.Duration(q.avgRun.Load())
	if avg <= 0 {
		avg = time.Second
	}
	workers := q.opts.Workers
	if workers < 1 {
		workers = 1
	}
	est := avg * time.Duration(q.queuedN/workers+1)
	return min(max(est, time.Second), 2*time.Minute)
}

// Get returns a snapshot of the job.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, false
	}
	return q.view(j), true
}

// List returns one page of job snapshots, newest first, plus the total
// count matching the filter. state "" matches every job; offset/limit
// page through the filtered ordering (limit <= 0 returns an empty page —
// callers choose the default).
func (q *Queue) List(state State, offset, limit int) ([]Job, int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	ids := make([]string, 0, len(q.jobs))
	for id, j := range q.jobs {
		if state == "" || j.State == state {
			ids = append(ids, id)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(ids)))
	total := len(ids)
	if offset < 0 {
		offset = 0
	}
	if offset > total {
		offset = total
	}
	ids = ids[offset:]
	if limit < 0 {
		limit = 0
	}
	if limit < len(ids) {
		ids = ids[:limit]
	}
	out := make([]Job, len(ids))
	for i, id := range ids {
		out[i] = q.view(q.jobs[id])
	}
	return out, total
}

// Cancel stops a job: queued jobs (heaped or claimed) transition to
// canceled immediately; running jobs get their context canceled and
// transition when the executor returns. Canceling a terminal job returns
// ErrTerminal; callers that need the distinction get the final snapshot
// either way.
func (q *Queue) Cancel(id string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, ErrNotFound
	}
	switch j.State {
	case StateQueued:
		q.finishLocked(j, StateCanceled, "canceled while queued", nil)
		return j.snapshot(), nil
	case StateRunning:
		j.userCanceled = true
		if j.cancel != nil {
			j.cancel()
		}
		return j.snapshot(), nil
	default:
		return q.view(j), ErrTerminal
	}
}

// view is the snapshot handed to callers: a done job's result is read
// back from the store (a copy, not a decode) when the queue holds none.
// Caller holds q.mu.
func (q *Queue) view(j *Job) Job {
	snap := j.snapshot()
	if snap.State == StateDone && snap.Result == nil && q.db != nil {
		if raw, ok := q.db.Get(bucketResults, j.ID); ok {
			snap.Result = raw
		}
	}
	return snap
}

// Runs reports how many executor runs have started — the "engine runs"
// count that dedup tests pin against submission counts.
func (q *Queue) Runs() int64 { return q.runsN.Load() }

// Depth reports the live population (queued includes claimed jobs and
// jobs parked by shutdown).
func (q *Queue) Depth() (queued, running int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queuedN, q.runningN
}

// Subscribe attaches to a job's event stream: its first Read replays the
// events the job's log keeps, and the stream ends at the terminal
// transition. Subscribing to a job that already finished gives a stream
// of one synthesized event, its terminal state. The caller closes the
// subscription.
func (q *Queue) Subscribe(id string) (*eventlog.Sub[Event], error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return nil, ErrNotFound
	}
	snap := j.snapshot()
	q.mu.Unlock()
	if sub, live := q.hub.subscribe(id); live {
		return sub, nil
	}
	l := newEventLog(nil)
	l.Publish(Event{Type: EventState, State: snap.State, Attempt: snap.Attempt, Error: snap.Error})
	l.Close()
	return l.Subscribe(), nil
}

// worker is one pool goroutine: pop the highest-priority ready job, run
// it, repeat until shutdown.
func (q *Queue) worker() {
	defer q.workers.Done()
	for {
		j := q.next()
		if j == nil {
			return
		}
		q.run(j)
	}
}

// next blocks until a job is ready or the queue closes (nil).
func (q *Queue) next() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		// Once closed, the jobs still heaped stay queued in the store for
		// the next process: none is popped.
		if q.closed {
			return nil
		}
		for q.ready.Len() > 0 {
			j := heap.Pop(&q.ready).(*Job)
			// Canceled-while-heaped jobs are skipped here (lazy removal).
			if j.State == StateQueued {
				return j
			}
		}
		q.cond.Wait()
	}
}

// run runs j once and applies the resulting transition.
func (q *Queue) run(j *Job) {
	q.mu.Lock()
	if j.State != StateQueued {
		q.mu.Unlock()
		return
	}
	now := time.Now()
	if j.Attempt == 0 {
		q.met.waitSeconds.ObserveSince(j.EnqueuedAt)
	}
	j.State = StateRunning
	j.Attempt++
	j.StartedAt = now
	ctx, cancel := context.WithCancel(q.baseCtx)
	j.cancel = cancel
	q.queuedN--
	q.runningN++
	q.syncDepth()
	snap := j.snapshot()
	q.mu.Unlock()

	q.runsN.Add(1)
	q.met.runs.Inc()
	q.persist(snap)
	q.publishStateSnap(snap)

	rctx, span := telemetry.StartSpan(ctx, "job")
	span.SetStr("job", snap.ID)
	span.SetStr("algorithm", snap.Spec.Algorithm)
	span.SetInt("attempt", int64(snap.Attempt))
	// Progress goes straight to the job's log: the terminal transition
	// that closes it comes after the run.
	events := q.hub.log(snap.ID)
	result, err := q.exec(rctx, snap, func(step core.TraceStep) {
		events.Publish(Event{Type: EventProgress, Attempt: snap.Attempt, Step: &step})
	})
	span.End()
	cancel()
	q.observeRun(now)

	q.mu.Lock()
	defer q.mu.Unlock()
	j.cancel = nil
	switch {
	case q.killed.Load():
		// Crash simulation: vanish without persisting, exactly as a
		// SIGKILL would — the store still says "running", which is what
		// recovery keys on.
		return
	case err == nil:
		q.finishLocked(j, StateDone, "", result)
	case j.userCanceled:
		q.finishLocked(j, StateCanceled, "canceled while running", nil)
	case q.baseCtx.Err() != nil:
		// Shutdown deadline canceled the run. Park the job as queued in
		// the store (not the heap — admission is closed) so the next
		// process recovers and finishes it.
		j.State = StateQueued
		j.Error = "interrupted by shutdown"
		q.runningN--
		q.queuedN++
		q.syncDepth()
		q.persist(j.snapshot())
		q.publishState(j)
	default:
		q.finishLocked(j, StateFailed, err.Error(), nil)
	}
}

// observeRun folds one run's duration into the latency histogram and
// the EWMA behind Retry-After estimates.
func (q *Queue) observeRun(start time.Time) {
	q.met.runSeconds.ObserveSince(start)
	d := int64(time.Since(start))
	prev := q.avgRun.Load()
	if prev == 0 {
		q.avgRun.Store(d)
	} else {
		q.avgRun.Store(prev + (d-prev)/4) // EWMA, alpha = 1/4
	}
}

// finishLocked applies a terminal transition. Caller holds q.mu.
func (q *Queue) finishLocked(j *Job, state State, errMsg string, result []byte) {
	q.clearClaimLocked(j)
	switch j.State {
	case StateQueued:
		q.queuedN--
	case StateRunning:
		q.runningN--
	}
	j.State = state
	j.Error = errMsg
	j.FinishedAt = time.Now()
	if result != nil && !q.storeResult(j.ID, result) {
		j.Result = result
	}
	if state == StateDone {
		q.byHash[j.SpecHash] = j
	} else if q.byHash[j.SpecHash] == j {
		delete(q.byHash, j.SpecHash)
	}
	switch state {
	case StateDone:
		q.met.done.Inc()
	case StateFailed:
		q.met.failed.Inc()
	case StateCanceled:
		q.met.canceled.Inc()
	case StateStolen:
		q.met.stolen.Inc()
	}
	q.syncDepth()
	q.persist(j.snapshot())
	q.publishState(j)
}

// Shutdown drains the queue: admission stops immediately, workers finish
// their current jobs, and queued jobs stay durably queued for the next
// process. If ctx expires first, running jobs are canceled and parked
// back as queued in the store. Returns ctx.Err() when the deadline cut
// the drain short.
func (q *Queue) Shutdown(ctx context.Context) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	for _, j := range q.claims {
		q.clearClaimLocked(j)
	}
	q.cond.Broadcast()
	q.mu.Unlock()

	done := make(chan struct{})
	go func() {
		q.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		q.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Kill simulates a process crash for recovery tests: every running job's
// context is canceled and no transition is persisted, leaving the store
// exactly as a power cut would — queued and running records in place.
// The queue is unusable afterwards.
func (q *Queue) Kill() {
	q.killed.Store(true)
	q.mu.Lock()
	q.closed = true
	for _, j := range q.claims {
		q.clearClaimLocked(j)
	}
	q.cond.Broadcast()
	q.mu.Unlock()
	q.baseCancel()
	q.workers.Wait()
}

// storeResult writes a done job's result under its own key, before the
// record that marks the job done, so a crash in between leaves a running
// record that recovery re-runs. It reports false — the caller then keeps
// the result on the job, embedded in its record — for memory-only and
// killed queues and on a store error.
func (q *Queue) storeResult(id string, result []byte) bool {
	if q.db == nil || q.killed.Load() {
		return false
	}
	if err := q.db.Put(bucketResults, id, result); err != nil {
		q.met.persistErrors.Inc()
		q.logf("jobs: persist result of %s: %v", id, err)
		return false
	}
	return true
}

// persist writes one job record; failures degrade durability, not
// availability (counted, logged, and the scheduler keeps going).
func (q *Queue) persist(snap Job) {
	if q.db == nil || q.killed.Load() {
		return
	}
	raw, err := encodeRecord(snap)
	if err == nil {
		err = q.db.Put(bucketJobs, snap.ID, raw)
	}
	if err != nil {
		q.met.persistErrors.Inc()
		q.logf("jobs: persist %s: %v", snap.ID, err)
	}
}

func (q *Queue) publishState(j *Job) { q.publishStateSnap(j.snapshot()) }

func (q *Queue) publishStateSnap(snap Job) {
	q.hub.publish(snap.ID, Event{Type: EventState, State: snap.State, Attempt: snap.Attempt, Error: snap.Error})
}

func (q *Queue) syncDepth() {
	q.met.depthQueued.Set(float64(q.queuedN))
	q.met.depthRunning.Set(float64(q.runningN))
}

// oldestQueuedAge backs the queue-age gauge: seconds since the oldest
// queued job was enqueued, 0 when nothing waits. A waiting job is in the
// ready heap or under a steal claim, so the done jobs in byHash are not walked.
func (q *Queue) oldestQueuedAge() float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	var oldest time.Time
	waiting := slices.Clone([]*Job(q.ready))
	for _, j := range q.claims {
		waiting = append(waiting, j)
	}
	for _, j := range waiting {
		if j.State == StateQueued && (oldest.IsZero() || j.EnqueuedAt.Before(oldest)) {
			oldest = j.EnqueuedAt
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest).Seconds()
}
