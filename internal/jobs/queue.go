package jobs

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/rng"
	"fairrank/internal/store"
	"fairrank/internal/telemetry"
)

// Executor runs one job attempt. It receives a snapshot of the job (not a
// live pointer), must honor ctx cancellation, and returns the result
// bytes to store on success. progress forwards engine TraceSteps to the
// job's event stream; it is safe to ignore.
//
// Executors must be deterministic in the job's Spec: crash recovery
// re-runs interrupted jobs and promises bit-identical results, so the
// output must not embed wall-clock time, attempt counts, or other
// run-local state.
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
	// MaxAttempts is the default retry budget for jobs that do not set
	// their own. 0 selects DefaultMaxAttempts.
	MaxAttempts int
	// Backoff is the retry delay policy; zero fields use DefaultBackoff.
	Backoff Backoff
	// ResultTTL is how long a completed spec's result answers
	// resubmissions of the same hash without a new run. 0 selects
	// DefaultResultTTL; negative disables the cache.
	ResultTTL time.Duration
	// Seed drives retry jitter. 0 selects a fixed seed: jitter quality
	// does not need entropy, and determinism helps tests.
	Seed uint64
	// Metrics, when non-nil, receives the queue's telemetry series (see
	// the Metric* names in this package).
	Metrics *telemetry.Registry
	// Logf receives scheduler log lines (e.g. log.Printf); nil disables.
	Logf func(format string, args ...any)
}

// Defaults for the zero Options.
const (
	DefaultWorkers     = 2
	DefaultMaxActive   = 64
	DefaultMaxAttempts = 3
	DefaultResultTTL   = 10 * time.Minute
)

// bucketJobs is the store bucket holding one JSON record per job.
const bucketJobs = "jobs"

// bucketResults holds each done job's result bytes under its job ID. A
// done job's record omits its result and the queue drops its own copy,
// so every result is held in memory once: by the store, which hands out
// copies. Records written before results had their own bucket embed the
// result and keep it.
const bucketResults = "results"

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

type resultEntry struct {
	id      string
	expires time.Time
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
	active   map[string]*Job // spec hash → non-terminal job (dedup)
	results  map[string]resultEntry
	claims   map[string]*Job // steal-claim token → parked job (steal.go)
	ready    jobHeap
	queuedN  int // jobs in StateQueued (heaped or in backoff)
	runningN int
	seq      uint64
	idSeq    uint64
	closed   bool

	killed  atomic.Bool // crash simulation: suppress persistence on exit
	runsN   atomic.Int64
	avgRun  atomic.Int64 // EWMA attempt duration, nanoseconds
	workers sync.WaitGroup
	jitter  *rng.RNG // guarded by mu
}

// New opens a queue over db (which may be nil for a memory-only queue),
// recovers persisted jobs — terminal records reload for listing and the
// result cache, queued/running records requeue — and starts the worker
// pool.
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
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = DefaultMaxAttempts
	}
	if opts.MaxAttempts > MaxAttemptsLimit {
		opts.MaxAttempts = MaxAttemptsLimit
	}
	opts.Backoff = opts.Backoff.withDefaults()
	if opts.ResultTTL == 0 {
		opts.ResultTTL = DefaultResultTTL
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 0x6a6f6273 // "jobs"
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
		active:     map[string]*Job{},
		results:    map[string]resultEntry{},
		claims:     map[string]*Job{},
		jitter:     rng.New(seed),
	}
	q.cond = sync.NewCond(&q.mu)
	q.hub = newEventHub(func() { inc(q.met.eventsDropped) })
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

// recover replays the jobs bucket: terminal jobs reload as history (done
// ones re-arm the result cache inside their TTL); queued and running jobs
// — the crash signature — requeue for another attempt.
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
		var j Job
		if err := json.Unmarshal(raw, &j); err != nil {
			return fmt.Errorf("jobs: corrupt job record %q: %w", id, err)
		}
		if j.ID != id {
			return fmt.Errorf("jobs: job record %q claims id %q", id, j.ID)
		}
		if j.Spec.Dataset == "" {
			// Records from when a spec could name a stored snapshot: that
			// file is the dataset of the same name. raw decoded above, so
			// only a mistyped field can fail here, and it leaves the spec
			// without a dataset, as it was.
			var legacy struct {
				Spec struct {
					Snapshot string `json:"snapshot"`
				} `json:"spec"`
			}
			_ = json.Unmarshal(raw, &legacy)
			j.Spec.Dataset = legacy.Spec.Snapshot
		}
		q.idSeq = max(q.idSeq, parseJobSeq(id))
		job := &j
		job.seq = q.nextSeq()
		q.jobs[id] = job
		switch {
		case job.State == StateDone:
			if q.opts.ResultTTL > 0 && job.FinishedAt.Add(q.opts.ResultTTL).After(now) {
				q.results[job.SpecHash] = resultEntry{id: id, expires: job.FinishedAt.Add(q.opts.ResultTTL)}
			}
		case job.State.Terminal():
			// failed/canceled: history only.
		default:
			// queued or running at crash time: requeue. Attempt stays as
			// recorded — the interrupted run already counted when it
			// started, and the next run will increment again.
			job.State = StateQueued
			job.Recovered = true
			if prev, dup := q.active[job.SpecHash]; dup {
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
			q.active[job.SpecHash] = job
			q.queuedN++
			heap.Push(&q.ready, job)
			q.persist(job.snapshot())
			inc(q.met.recovered)
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
// cached result). Errors: ErrShuttingDown after Shutdown, *FullError when
// admission control sheds.
func (q *Queue) Submit(spec Spec, specHash string) (Job, bool, error) {
	if specHash == "" {
		return Job{}, false, errors.New("jobs: Submit requires a spec hash")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return Job{}, false, ErrShuttingDown
	}
	// Singleflight: an active job with this hash absorbs the submission.
	if j := q.active[specHash]; j != nil {
		inc(q.met.deduped)
		return q.view(j), false, nil
	}
	// TTL result cache: a recently completed identical spec answers
	// directly.
	now := time.Now()
	if e, ok := q.results[specHash]; ok {
		if now.Before(e.expires) {
			if j := q.jobs[e.id]; j != nil && j.State == StateDone {
				inc(q.met.cacheHits)
				return q.view(j), false, nil
			}
		}
		delete(q.results, specHash)
	}
	active := q.queuedN + q.runningN
	if active >= q.opts.MaxActive {
		inc(q.met.shed)
		return Job{}, false, &FullError{Active: active, Limit: q.opts.MaxActive, RetryAfter: q.retryAfterLocked()}
	}
	q.idSeq++
	maxAttempts := spec.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = q.opts.MaxAttempts
	}
	j := &Job{
		ID:          fmt.Sprintf("job-%06d", q.idSeq),
		SpecHash:    specHash,
		Spec:        spec,
		Priority:    spec.Priority,
		State:       StateQueued,
		MaxAttempts: maxAttempts,
		EnqueuedAt:  now,
		seq:         q.nextSeq(),
	}
	q.jobs[j.ID] = j
	q.active[specHash] = j
	q.queuedN++
	heap.Push(&q.ready, j)
	q.syncDepth()
	inc(q.met.submitted)
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

// Cancel stops a job: queued jobs (heaped or in backoff) transition to
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
		if j.retryTimer != nil {
			j.retryTimer.Stop()
			j.retryTimer = nil
		}
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

// Runs reports how many executor attempts have started — the "engine
// runs" count that dedup tests pin against submission counts.
func (q *Queue) Runs() int64 { return q.runsN.Load() }

// Depth reports the live population (queued includes backoff windows).
func (q *Queue) Depth() (queued, running int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queuedN, q.runningN
}

// Subscribe attaches to a job's event stream, returning the buffered
// replay and a live channel that closes at the terminal transition.
// Subscribing to a job that already finished returns a synthesized
// replay (its terminal state event) and a closed channel.
func (q *Queue) Subscribe(id string) ([]Event, <-chan Event, func(), error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return nil, nil, nil, ErrNotFound
	}
	snap := j.snapshot()
	q.mu.Unlock()
	if replay, ch, cancel, live := q.hub.subscribe(id); live {
		return replay, ch, cancel, nil
	}
	closed := make(chan Event)
	close(closed)
	return []Event{{Seq: 1, Type: EventState, State: snap.State, Attempt: snap.Attempt, Error: snap.Error}},
		closed, func() {}, nil
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
		for q.ready.Len() > 0 {
			j := heap.Pop(&q.ready).(*Job)
			// Canceled-while-heaped jobs are skipped here (lazy removal).
			if j.State == StateQueued && j.retryTimer == nil {
				return j
			}
		}
		if q.closed {
			return nil
		}
		q.cond.Wait()
	}
}

// run drives one attempt of j and applies the resulting transition.
func (q *Queue) run(j *Job) {
	q.mu.Lock()
	if j.State != StateQueued {
		q.mu.Unlock()
		return
	}
	now := time.Now()
	if j.Attempt == 0 {
		observeSince(q.met.waitSeconds, j.EnqueuedAt)
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
	inc(q.met.runs)
	q.persist(snap)
	q.publishStateSnap(snap)

	rctx, span := telemetry.StartSpan(ctx, "job")
	span.SetStr("job", snap.ID)
	span.SetStr("algorithm", snap.Spec.Algorithm)
	span.SetInt("attempt", int64(snap.Attempt))
	result, err := q.exec(rctx, snap, func(step core.TraceStep) {
		s := step
		q.hub.publish(snap.ID, Event{Type: EventProgress, Attempt: snap.Attempt, Step: &s})
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
	case j.Attempt >= j.MaxAttempts:
		q.finishLocked(j, StateFailed, fmt.Sprintf("attempt %d/%d: %v", j.Attempt, j.MaxAttempts, err), nil)
	default:
		q.retryLocked(j, err)
	}
}

// observeRun folds one attempt duration into the latency histogram and
// the EWMA behind Retry-After estimates.
func (q *Queue) observeRun(start time.Time) {
	observeSince(q.met.runSeconds, start)
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
		j.Result = json.RawMessage(result)
	}
	delete(q.active, j.SpecHash)
	switch state {
	case StateDone:
		inc(q.met.done)
		if q.opts.ResultTTL > 0 {
			q.results[j.SpecHash] = resultEntry{id: j.ID, expires: j.FinishedAt.Add(q.opts.ResultTTL)}
		}
	case StateFailed:
		inc(q.met.failed)
	case StateCanceled:
		inc(q.met.canceled)
	case StateStolen:
		inc(q.met.stolen)
	}
	q.syncDepth()
	q.persist(j.snapshot())
	q.publishState(j)
}

// retryLocked parks j in a backoff window and re-heaps it when the timer
// fires. Caller holds q.mu.
func (q *Queue) retryLocked(j *Job, cause error) {
	delay := q.opts.Backoff.Delay(j.Attempt, q.jitter)
	j.State = StateQueued
	j.Error = cause.Error()
	j.notBefore = time.Now().Add(delay)
	q.runningN--
	q.queuedN++
	q.syncDepth()
	inc(q.met.retries)
	q.logf("jobs: %s attempt %d/%d failed (%v); retrying in %s", j.ID, j.Attempt, j.MaxAttempts, cause, delay)
	j.retryTimer = time.AfterFunc(delay, func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		if j.retryTimer == nil || j.State != StateQueued {
			return // canceled or shut down while parked
		}
		j.retryTimer = nil
		if q.closed {
			return // stays queued in the store; recovery resumes it
		}
		heap.Push(&q.ready, j)
		q.cond.Signal()
	})
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
	for _, j := range q.jobs {
		if j.retryTimer != nil {
			j.retryTimer.Stop()
			j.retryTimer = nil
		}
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
	for _, j := range q.jobs {
		if j.retryTimer != nil {
			j.retryTimer.Stop()
			j.retryTimer = nil
		}
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
		inc(q.met.persistErrors)
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
	raw, err := json.Marshal(snap)
	if err == nil {
		err = q.db.Put(bucketJobs, snap.ID, raw)
	}
	if err != nil {
		inc(q.met.persistErrors)
		q.logf("jobs: persist %s: %v", snap.ID, err)
	}
}

func (q *Queue) publishState(j *Job) { q.publishStateSnap(j.snapshot()) }

func (q *Queue) publishStateSnap(snap Job) {
	q.hub.publish(snap.ID, Event{Type: EventState, State: snap.State, Attempt: snap.Attempt, Error: snap.Error})
}

func (q *Queue) syncDepth() {
	setGauge(q.met.depthQueued, float64(q.queuedN))
	setGauge(q.met.depthRunning, float64(q.runningN))
}

// oldestQueuedAge backs the queue-age gauge: seconds since the oldest
// queued job was enqueued, 0 when nothing waits.
func (q *Queue) oldestQueuedAge() float64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	var oldest time.Time
	for _, j := range q.active {
		if j.State == StateQueued && (oldest.IsZero() || j.EnqueuedAt.Before(oldest)) {
			oldest = j.EnqueuedAt
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return time.Since(oldest).Seconds()
}
