package drift

import "fairrank/internal/monitor"

// entryKind discriminates the effective events held in the window ring.
type entryKind uint8

const (
	entryJoin entryKind = iota
	entryLeave
	entryRescore
)

// entry is one effective event in the window ring. Entries for the same
// worker's membership span form a chain through next pointers rooted at
// the span's Join, so retracting the Join can tombstone the whole span in
// one walk.
type entry struct {
	id    string
	score float64
	next  int // seq of the next entry in this worker's span, -1 if last
	slot  int // the worker's row in the worker table
	cell  int // Join entries only: the worker's partition cell
	kind  entryKind
	dead  bool
}

// Window is the sliding-window unfairness estimator: its value is, by
// definition, the unfairness a fresh monitor would report after replaying
// only the last Capacity *effective* events from empty. Instead of
// replaying, it maintains that state incrementally — admissions reuse the
// monitor's O(k + log k) delta path and retractions undo the aged-out
// event through the same machinery — so the estimate is O(1) to read after
// every event and bit-identical to the replay (the differential suite in
// differential_test.go pins this).
//
// Raw stream events are normalized at admission so the window's contents
// always replay cleanly from empty:
//
//   - a Rescore whose Join already aged out re-enters the worker as a
//     Join, using the protected attributes remembered for its cell;
//   - a Leave whose Join already aged out admits nothing — the worker's
//     absence is already reflected in the windowed population;
//   - retracting a Join tombstones every later entry of that membership
//     span (its Rescores, and its Leave if one was admitted), because
//     those entries are meaningless without the Join they modify.
//
// Consequently the oldest live entry is always a span-opening Join: a live
// Leave or Rescore always has its span's Join alive at a strictly older
// position (if the Join had been retracted the entry would be dead), so
// retraction never has to undo a bare Leave/Rescore.
//
// Memory tracks the live population plus the window, never the stream's
// history: the worker table holds one row per worker on the platform
// (Leave frees it, whether or not the worker's span is still in the
// window), and every ring Join names its partition cell, whose one
// attribute map — whichever the cell's first Join carried — the window
// keeps. Replaying that map keys to the same cell, so the window's
// contents replay exactly.
//
// A Watch owns its window and feeds it every event by worker slot. It is
// not safe for concurrent use.
type Window struct {
	mon      *monitor.Monitor
	capacity int
	// ring is a power-of-two buffer indexed by seq & (len(ring)-1); seqs
	// are monotonic, head..tail is the occupied span. Tombstoned entries
	// linger until head passes them, so the ring can transiently hold more
	// than capacity slots and grows on demand.
	ring        []entry
	head, tail  int
	live        int // non-dead entries in [head, tail)
	retractions int64
	// tab is the worker table of the Watch that owns the window.
	tab *workerTable
	// cellAttrs holds the one attribute map per partition cell, by cell
	// index, so an aged-out worker's Rescore can re-enter it.
	cellAttrs []map[string]any
}

// newWindow creates a window over cells, holding the last capacity
// effective events of the workers in tab.
func newWindow(cells *monitor.Cells, tab *workerTable, bins, capacity int) (*Window, error) {
	m, err := monitor.NewWithCells(cells, bins, 0)
	if err != nil {
		return nil, err
	}
	return &Window{mon: m, capacity: capacity, ring: make([]entry, 16), tab: tab}, nil
}

func (w *Window) slot(seq int) *entry { return &w.ring[seq&(len(w.ring)-1)] }

// push appends an entry at the tail, growing the ring if every slot
// between head and tail is occupied.
func (w *Window) push(e entry) int {
	if w.tail-w.head == len(w.ring) {
		grown := make([]entry, 2*len(w.ring))
		for s := w.head; s < w.tail; s++ {
			grown[s&(len(grown)-1)] = w.ring[s&(len(w.ring)-1)]
		}
		w.ring = grown
	}
	seq := w.tail
	*w.slot(seq) = e
	w.tail++
	w.live++
	return seq
}

// retractOldest ages out the oldest live entry — always a span-opening
// Join, see the type comment — tombstoning its span and, if the span was
// still open, removing the worker from the windowed population.
func (w *Window) retractOldest() {
	for w.head < w.tail && w.slot(w.head).dead {
		w.head++
	}
	if w.head == w.tail {
		return
	}
	e := w.slot(w.head)
	if e.kind != entryJoin {
		panic("drift: window retraction reached a non-Join span head")
	}
	closed := false
	for cur := e.next; cur != -1; {
		s := w.slot(cur)
		if s.kind == entryLeave {
			closed = true
		}
		s.dead = true
		w.live--
		cur = s.next
	}
	e.dead = true
	w.live--
	w.head++
	w.retractions++
	if !closed {
		// Span still open: the worker, still on the platform at the same
		// slot, ages out of the windowed population.
		r := &w.tab.rows[e.slot]
		w.mon.LeaveWorker(&r.window, 1)
		r.tail = -1
	}
}

func (w *Window) trim() {
	for w.live > w.capacity {
		w.retractOldest()
	}
}

// join admits a worker just added to the table at slot. The window keeps
// protected if it is the first map seen for the worker's cell, to replay
// and re-admit every worker of that cell with, so the caller must not
// mutate it afterwards.
func (w *Window) join(slot int, id string, protected map[string]any, score float64) {
	cell := w.tab.rows[slot].cell
	for len(w.cellAttrs) <= cell {
		w.cellAttrs = append(w.cellAttrs, nil)
	}
	if w.cellAttrs[cell] == nil {
		w.cellAttrs[cell] = protected
	}
	w.admit(slot, id, score)
}

// admit opens a membership span: the worker joins the windowed population
// and its Join entry enters the ring.
func (w *Window) admit(slot int, id string, score float64) {
	r := &w.tab.rows[slot]
	w.mon.JoinCell(&r.window, r.cell, score, 1)
	r.tail = w.push(entry{kind: entryJoin, id: id, slot: slot, cell: r.cell, score: score, next: -1})
	w.trim()
}

// leave records the departure of the worker at slot; the caller frees the
// slot. If the worker's span already aged out of the window, the
// departure is already reflected and admits nothing.
func (w *Window) leave(slot int, id string) {
	r := &w.tab.rows[slot]
	if r.tail < 0 {
		return
	}
	w.mon.LeaveWorker(&r.window, 1)
	seq := w.push(entry{kind: entryLeave, id: id, slot: slot, next: -1})
	w.slot(r.tail).next = seq
	r.tail = -1
	w.trim()
}

// rescore updates the score of the worker at slot. If its span aged out
// of the window it re-enters as a Join with its cell's protected
// attributes: the rescore proves the worker is still on the platform.
func (w *Window) rescore(slot int, id string, score float64) {
	r := &w.tab.rows[slot]
	if r.tail < 0 {
		w.admit(slot, id, score)
		return
	}
	w.mon.RescoreWorker(&r.window, 1, score, 1)
	seq := w.push(entry{kind: entryRescore, id: id, slot: slot, score: score, next: -1})
	w.slot(r.tail).next = seq
	r.tail = seq
	w.trim()
}

// Unfairness returns the windowed unfairness estimate.
func (w *Window) Unfairness() float64 { return w.mon.Unfairness() }

// Workers returns the windowed population size.
func (w *Window) Workers() int { return w.mon.Workers() }

// Groups returns the number of non-empty windowed groups.
func (w *Window) Groups() int { return w.mon.Groups() }

// Live returns the window occupancy: the number of live (non-tombstoned)
// effective events currently held, at most the capacity.
func (w *Window) Live() int { return w.live }

// Retractions returns how many span heads have aged out.
func (w *Window) Retractions() int64 { return w.retractions }

// Contents returns the window's live effective events in admission order,
// as wire events. Replaying them into a fresh monitor reconstructs the
// windowed state exactly; the differential suite leans on this.
func (w *Window) Contents() []Event {
	out := make([]Event, 0, w.live)
	for s := w.head; s < w.tail; s++ {
		e := w.slot(s)
		if e.dead {
			continue
		}
		switch e.kind {
		case entryJoin:
			out = append(out, Event{Type: EventJoin, Worker: e.id, Protected: w.cellAttrs[e.cell], Score: e.score})
		case entryLeave:
			out = append(out, Event{Type: EventLeave, Worker: e.id})
		case entryRescore:
			out = append(out, Event{Type: EventRescore, Worker: e.id, Score: e.score})
		}
	}
	return out
}
