// Package jobs is the durable asynchronous audit tier between the HTTP
// edge and the engine: it turns audit specifications into managed
// background jobs with a persisted state machine, so a production
// deployment can queue, deduplicate, prioritize and recover fairness
// audits instead of running each one synchronously inside an HTTP request.
//
// The pieces:
//
//   - Job is the unit of work: an audit Spec plus scheduling state
//     (priority, attempt count, timestamps) driven through the state
//     machine queued → running → {done, failed, canceled}. Every
//     transition is persisted as one record in the embedded store, so a
//     crashed or restarted process replays the log and requeues whatever
//     was queued or running when it died.
//
//   - Queue owns a bounded worker pool. Dispatch is by priority (higher
//     first, FIFO within a priority via a monotonic sequence number)
//     through a binary heap. Each job gets its own cancelable context
//     and runs once: the executor is a pure function of the spec, so a
//     run that errors fails the job with that error. Identical
//     submissions — by canonical core.Spec hash — coalesce onto a queued
//     or running job (singleflight), and a done job answers them with its
//     result for as long as the queue holds it. Admission control sheds
//     load with a typed FullError (the HTTP layer maps it to 429 +
//     Retry-After) once the active set reaches its bound.
//
//   - The event hub keeps one bounded event log per live job, of its
//     lifecycle and engine-progress events, which subscribers read by
//     cursor; it is what GET /v1/jobs/{id}/events streams as
//     server-sent events.
//
// The queue is engine-agnostic: it runs an Executor callback and stores
// the bytes it returns without parsing them. The HTTP server supplies an
// executor that resolves the spec's dataset, drives core.Run, and
// encodes a deterministic result record — deterministic so that a job
// interrupted by a crash and re-run after recovery reproduces its result
// bit-identically.
package jobs
