package jobs

import (
	"container/heap"
	"crypto/rand"
	"encoding/hex"
	"time"
)

// Work-stealing handoff: a peer node ("thief") claims queued jobs from
// this queue ("victim") and acknowledges once it has durably enqueued
// them on its side. The handoff is two-phase so a job is never lost and
// runs exactly once when the exchange completes:
//
//	claim  ClaimQueued pops dispatchable jobs off the ready heap and
//	       parks them under a claim token. A claimed job stays queued in
//	       the persisted record — if either side crashes mid-handoff the
//	       victim's recovery requeues it (at-least-once, never zero).
//	ack    AckClaims transitions the claimed job to the terminal
//	       StateStolen: the thief owns it now, under its own job ID.
//
// A claim that is never acked expires after its TTL and the job returns
// to the ready heap. The only double-run window is an ack lost after the
// thief enqueued — harmless, because executors are deterministic in the
// spec and results are bit-identical wherever the job runs.

// DefaultClaimTTL is how long a steal claim may wait for its ack before
// the job returns to the victim's ready heap.
const DefaultClaimTTL = 15 * time.Second

// MaxStealBatch bounds how many jobs one ClaimQueued call hands over.
const MaxStealBatch = 64

// Claim is one queued job handed to a stealing peer, pending ack.
type Claim struct {
	// Token identifies the claim in the ack; unguessable so a stray ack
	// cannot finalize someone else's handoff.
	Token string `json:"token"`
	// JobID is the victim-side job identifier (for logs and status).
	JobID string `json:"job_id"`
	// SpecHash is the canonical spec hash the job was admitted under; the
	// thief re-submits under the same hash so cluster-wide dedup holds.
	SpecHash string `json:"spec_hash"`
	// Spec is the full wire spec, replayable on the thief as pure data.
	Spec Spec `json:"spec"`
}

func newClaimToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a time-derived token: uniqueness is what matters
		// here, and a clock tick per claim under one mutex is unique.
		return hex.EncodeToString([]byte(time.Now().Format(time.RFC3339Nano)))
	}
	return hex.EncodeToString(b[:])
}

// ClaimQueued atomically removes up to max dispatchable queued jobs from
// the ready heap and parks them under claim tokens for a stealing peer.
// Only jobs whose spec passes eligible (nil = all) are handed over —
// thieves pass their dataset inventory so they never claim a job they
// cannot resolve. Canceled-but-heaped entries and already-claimed jobs
// are never claimed. Claims expire after ttl
// (0 selects DefaultClaimTTL) and the jobs return to the heap.
func (q *Queue) ClaimQueued(max int, eligible func(Spec) bool, thief string, ttl time.Duration) []Claim {
	if max <= 0 {
		return nil
	}
	if max > MaxStealBatch {
		max = MaxStealBatch
	}
	if ttl <= 0 {
		ttl = DefaultClaimTTL
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	var claimed []*Job
	var skipped []*Job
	for q.ready.Len() > 0 && len(claimed) < max {
		j := heap.Pop(&q.ready).(*Job)
		if j.State != StateQueued {
			// Lazily removed (canceled while heaped) — drop, as next() does.
			continue
		}
		if eligible != nil && !eligible(j.Spec) {
			skipped = append(skipped, j)
			continue
		}
		claimed = append(claimed, j)
	}
	for _, j := range skipped {
		heap.Push(&q.ready, j)
	}
	if len(skipped) > 0 {
		q.cond.Signal()
	}
	out := make([]Claim, 0, len(claimed))
	for _, j := range claimed {
		token := newClaimToken()
		j.claimToken = token
		j.claimedBy = thief
		j.claimTimer = time.AfterFunc(ttl, func() { q.expireClaim(token) })
		q.claims[token] = j
		q.met.claims.Inc()
		out = append(out, Claim{Token: token, JobID: j.ID, SpecHash: j.SpecHash, Spec: j.Spec})
	}
	return out
}

// expireClaim returns an unacked claim's job to the ready heap. The job
// never left StateQueued, so no persistence or event is needed.
func (q *Queue) expireClaim(token string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.claims[token]
	if !ok || j.claimToken != token {
		return // acked, canceled, or shut down while parked
	}
	q.clearClaimLocked(j)
	q.met.claimsExpired.Inc()
	if j.State == StateQueued && !q.closed {
		heap.Push(&q.ready, j)
		q.cond.Signal()
	}
}

// clearClaimLocked detaches a job from its claim. Caller holds q.mu.
func (q *Queue) clearClaimLocked(j *Job) {
	if j.claimToken == "" {
		return
	}
	delete(q.claims, j.claimToken)
	if j.claimTimer != nil {
		j.claimTimer.Stop()
		j.claimTimer = nil
	}
	j.claimToken = ""
}

// AckClaims finalizes steal handoffs: each still-claimed token's job
// transitions to the terminal StateStolen, recording the thief that now
// owns it. Unknown or expired tokens are ignored (the job either went
// back to the heap or finished another way); the count of jobs actually
// handed over is returned.
func (q *Queue) AckClaims(tokens []string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, token := range tokens {
		j, ok := q.claims[token]
		if !ok || j.claimToken != token {
			continue
		}
		thief := j.claimedBy
		q.clearClaimLocked(j)
		if j.State != StateQueued {
			continue
		}
		q.finishLocked(j, StateStolen, "stolen by "+thief, nil)
		n++
	}
	return n
}

// Claimed reports how many jobs are currently parked under steal claims
// (still queued, not dispatchable, waiting for their ack).
func (q *Queue) Claimed() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.claims)
}
