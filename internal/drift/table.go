package drift

import "fairrank/internal/monitor"

// worker is one row of a worker table: the worker's partition cell and
// each estimator's state for it. A Watch keeps one table for all of its
// estimators, so an event costs one id lookup however many it feeds.
type worker struct {
	cell int
	// total, window and decay are the worker's states in the unbounded
	// monitor and in the window's and the decay's inner monitors.
	total  monitor.Worker
	window monitor.Worker
	decay  monitor.Worker
	// weight is the weight of the decay's observation of the worker; the
	// other two observe every worker at weight 1.
	weight float64
	// tail is the seq of the newest live window entry of the worker's
	// membership span, -1 once the span aged out: the worker is in the
	// window's inner monitor iff tail >= 0.
	tail int
}

// workerTable maps every worker on the platform (joined, not yet left) to
// a dense slot of rows, reusing departed workers' slots.
type workerTable struct {
	slots map[string]int
	rows  []worker
	free  []int
}

func newWorkerTable() *workerTable { return &workerTable{slots: map[string]int{}} }

// reserve makes room for n workers in all. It sizes an empty table's id
// index as well.
func (t *workerTable) reserve(n int) {
	if n <= cap(t.rows) {
		return
	}
	if len(t.slots) == 0 {
		t.slots = make(map[string]int, n)
	}
	t.rows = append(make([]worker, 0, n), t.rows...)
}

func (t *workerTable) lookup(id string) (int, bool) {
	slot, ok := t.slots[id]
	return slot, ok
}

// add gives id a slot whose row holds only its cell.
func (t *workerTable) add(id string, cell int) int {
	row := worker{cell: cell}
	var slot int
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
		t.rows[slot] = row
	} else {
		slot = len(t.rows)
		t.rows = append(t.rows, row)
	}
	t.slots[id] = slot
	return slot
}

// remove forgets id and frees its slot.
func (t *workerTable) remove(id string, slot int) {
	delete(t.slots, id)
	t.free = append(t.free, slot)
}
