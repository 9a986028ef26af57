package drift

import "fairrank/internal/eventlog"

// hubReplay bounds how many past alarm events a monitor keeps: what a new
// subscriber gets replayed, and how far a subscriber may fall behind
// before it loses events. Alarm transitions are rare by construction
// (hysteresis and cooldown), so a small bound covers any realistic
// reconnect gap.
const hubReplay = 256

// Hub is one monitor's alarm-event stream to SSE subscribers: replay of
// recent history on subscribe, then live delivery, and never a wait on a
// subscriber on the ingest path. Unlike a job's stream there is no
// terminal event — a monitor's stream outlives any one subscriber and
// closes only when the monitor is deleted.
type Hub = eventlog.Log[AlarmEvent]

// NewHub returns an empty hub, whose events are numbered as Seq.
func NewHub() *Hub {
	return eventlog.New(hubReplay, func(ev *AlarmEvent, seq int64) { ev.Seq = seq }, nil)
}
