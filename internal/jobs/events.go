package jobs

import (
	"sync"

	"fairrank/internal/core"
	"fairrank/internal/eventlog"
)

// EventType discriminates the two event streams a job emits.
type EventType string

const (
	// EventState marks a lifecycle transition; Event.State carries the
	// new state.
	EventState EventType = "state"
	// EventProgress carries one engine TraceStep from the running audit.
	EventProgress EventType = "progress"
)

// Event is one entry in a job's event stream, as delivered to
// subscribers and serialized onto the SSE wire.
type Event struct {
	// Seq numbers events within one job, from 1; subscribers can resume
	// dedup across replay + live delivery by sequence.
	Seq int `json:"seq"`
	// Type selects which payload fields are set.
	Type EventType `json:"type"`
	// State is the lifecycle state entered (state events).
	State State `json:"state,omitempty"`
	// Attempt is the attempt number the event belongs to.
	Attempt int `json:"attempt,omitempty"`
	// Error carries the failure reason on failed/retrying transitions.
	Error string `json:"error,omitempty"`
	// Step is the engine trace step (progress events).
	Step *core.TraceStep `json:"step,omitempty"`
}

// keptEvents bounds one job's event log: a running job holds at most this
// many events however long its search. A paper-schema unbalanced search
// emits about a thousand steps, at 7,300 workers and at a million, so a
// subscriber of such a job replays or follows all of it even when its
// writer gets no CPU until the search ends.
const keptEvents = 4096

// eventHub keeps one event log per live job, so a late subscriber reads
// the job's recent history. Terminal jobs are evicted: their full record
// (including the result) lives in the queue and store, so the hub only
// ever holds state for live jobs.
type eventHub struct {
	mu   sync.Mutex
	jobs map[string]*eventlog.Log[Event]
	// dropped counts events subscribers lost; surfaced as a telemetry
	// counter by the queue.
	dropped func(int64)
}

func newEventHub(dropped func(int64)) *eventHub {
	return &eventHub{jobs: map[string]*eventlog.Log[Event]{}, dropped: dropped}
}

// newEventLog is a job's event log, whose events are numbered as Seq.
func newEventLog(dropped func(int64)) *eventlog.Log[Event] {
	return eventlog.New(keptEvents, func(ev *Event, seq int64) { ev.Seq = int(seq) }, dropped)
}

// log returns the job's event log, created on first use.
func (h *eventHub) log(id string) *eventlog.Log[Event] {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.logLocked(id)
}

func (h *eventHub) logLocked(id string) *eventlog.Log[Event] {
	l := h.jobs[id]
	if l == nil {
		l = newEventLog(h.dropped)
		h.jobs[id] = l
	}
	return l
}

// publish appends ev to the job's log. A terminal state event closes the
// log and evicts it.
func (h *eventHub) publish(id string, ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	l := h.logLocked(id)
	l.Publish(ev)
	if ev.Type == EventState && ev.State.Terminal() {
		l.Close()
		delete(h.jobs, id)
	}
}

// subscribe attaches to the job's log. For a job already evicted
// (terminal before any subscription), ok is false and the caller
// synthesizes the history from the job record.
func (h *eventHub) subscribe(id string) (sub *eventlog.Sub[Event], ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	l := h.jobs[id]
	if l == nil {
		return nil, false
	}
	return l.Subscribe(), true
}
