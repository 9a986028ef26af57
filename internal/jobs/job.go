package jobs

import (
	"context"
	"encoding/json"
	"time"
)

// State is a job's position in the lifecycle state machine:
//
//	queued ──→ running ──→ done
//	  ↑  │        │  │───→ failed     (attempts exhausted)
//	  │  │        │  └───→ canceled   (DELETE while running)
//	  │  └──────────────→ canceled    (DELETE while queued)
//	  └───────── │                    (retry after backoff, or
//	                                   crash/shutdown recovery)
type State string

const (
	// StateQueued means the job is waiting for a worker — either in the
	// dispatch heap, or parked in a backoff window after a failed attempt.
	StateQueued State = "queued"
	// StateRunning means a worker is executing the job now.
	StateRunning State = "running"
	// StateDone means the job completed and Result holds its output.
	StateDone State = "done"
	// StateFailed means every allowed attempt errored; Error holds the
	// last attempt's error.
	StateFailed State = "failed"
	// StateCanceled means the job was canceled before completing.
	StateCanceled State = "canceled"
	// StateStolen means a work-stealing peer claimed and acked the job;
	// it runs there under the peer's own job ID. Error records the thief.
	StateStolen State = "stolen"
)

// Terminal reports whether the state is final: terminal jobs never change
// again and their event streams are closed.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateStolen
}

// Job is one managed audit. The exported fields are the persisted record
// and the API representation; Queue methods hand out value copies, never
// pointers into the scheduler's state.
type Job struct {
	// ID is the queue-assigned identifier ("job-000001", ...). IDs sort
	// lexicographically in creation order.
	ID string `json:"id"`
	// SpecHash is the canonical core.Spec hash the job was submitted
	// under — the dedup and result-cache key.
	SpecHash string `json:"spec_hash"`
	// Spec is the submitted audit specification, replayed verbatim on
	// retry and crash recovery.
	Spec Spec `json:"spec"`
	// Priority orders dispatch: higher runs first; equal priorities run
	// in submission order.
	Priority int `json:"priority"`
	// State is the current lifecycle state.
	State State `json:"state"`
	// Attempt counts started runs (1 on the first run). A job requeued by
	// crash recovery re-runs under the next attempt number.
	Attempt int `json:"attempt"`
	// MaxAttempts bounds Attempt; the job fails when a run errors at the
	// limit.
	MaxAttempts int `json:"max_attempts"`
	// Recovered marks a job that was requeued by crash recovery rather
	// than submitted in this process's lifetime.
	Recovered bool `json:"recovered,omitempty"`
	// EnqueuedAt, StartedAt and FinishedAt trace the lifecycle.
	// StartedAt is the most recent attempt's start; both StartedAt and
	// FinishedAt are zero until they happen.
	EnqueuedAt time.Time `json:"enqueued_at"`
	StartedAt  time.Time `json:"started_at,omitempty"`
	FinishedAt time.Time `json:"finished_at,omitempty"`
	// Error is the most recent attempt's error, kept across retries so a
	// queued-for-retry job explains why it is waiting.
	Error string `json:"error,omitempty"`
	// Result is the executor's output once State is done. Queue methods
	// fill it in; a durable queue stores it under its own key and leaves
	// it out of the persisted record, so each result is held once.
	Result json.RawMessage `json:"result,omitempty"`

	// Scheduler-private state, never persisted or copied out.
	seq          uint64             // FIFO tiebreak within a priority
	cancel       context.CancelFunc // set while running
	userCanceled bool               // Cancel was called mid-run
	retryTimer   *time.Timer        // set while parked in a backoff window
	notBefore    time.Time          // end of the backoff window
	claimToken   string             // set while parked under a steal claim
	claimedBy    string             // thief node that holds the claim
	claimTimer   *time.Timer        // claim-expiry requeue timer
}

// snapshot returns the API/persistence view of the job: a value copy with
// the scheduler-private fields zeroed.
func (j *Job) snapshot() Job {
	c := *j
	c.seq = 0
	c.cancel = nil
	c.userCanceled = false
	c.retryTimer = nil
	c.notBefore = time.Time{}
	c.claimToken = ""
	c.claimedBy = ""
	c.claimTimer = nil
	return c
}
