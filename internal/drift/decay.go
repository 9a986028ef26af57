package drift

import (
	"errors"
	"fmt"
	"math"

	"fairrank/internal/dataset"
	"fairrank/internal/monitor"
)

// rescaleAbove bounds the growing observation weight: when the next
// observation's weight passes it, every stored weight is divided by it so
// the float range is never exhausted. Normalization cancels the common
// scale, so rescaling is invisible in the estimate (up to float rounding).
const rescaleAbove = 1e200

// Decay is the exponential-decay (half-life) unfairness estimator for
// unbounded streams: every stored observation loses half its weight each
// halfLife events, so the estimate tracks the recent past without the
// window's explicit retraction bookkeeping. It is a monitor.Monitor fed
// growing weights — the observation admitted at event t carries weight
// 2^(t/h) — so decaying N old observations costs nothing per event, and
// the monitor's delta path keeps the average current after every event.
// Decay itself is only the half-life clock.
//
// Every event (Join, Leave, Rescore) advances time by one. A Rescore
// refreshes the worker's weight to the present — the observation is
// re-made now. Unlike Window, Decay has no bit-identity replay contract:
// the differential suite compares it against a literal-math oracle within
// a float tolerance.
//
// Decay is not safe for concurrent use.
type Decay struct {
	mon    *monitor.Monitor
	cells  *monitor.Cells
	growth float64 // per-event weight multiplier, 2^(1/halfLife)
	weight float64 // weight the next observation will carry
	events int64
	// tab is the worker table: a standalone estimator's own, or the table
	// of the Watch that built it, which then feeds it every event.
	tab *workerTable
}

// NewDecay creates a half-life estimator over the partitioning induced by
// the named protected attributes. halfLife is in events and must be
// positive; bins defaults to 10 when <= 0. Its per-event growth factor is
// math.Exp2(1/halfLife), whose last bit may differ between architectures,
// and so may the estimates built on it.
func NewDecay(schema *dataset.Schema, attrs []string, bins int, halfLife float64) (*Decay, error) {
	cells, err := monitor.NewCells(schema, attrs)
	if err != nil {
		return nil, err
	}
	return newDecay(cells, newWorkerTable(), bins, halfLife)
}

func newDecay(cells *monitor.Cells, tab *workerTable, bins int, halfLife float64) (*Decay, error) {
	if !(halfLife > 0) || math.IsInf(halfLife, 1) {
		return nil, fmt.Errorf("drift: half-life must be positive and finite, got %v", halfLife)
	}
	m, err := monitor.NewWithCells(cells, bins, 0)
	if err != nil {
		return nil, err
	}
	return &Decay{mon: m, cells: cells, growth: math.Exp2(1 / halfLife), weight: 1, tab: tab}, nil
}

// tick advances time one event: the next observation weighs growth× more,
// which is exactly "everything stored decays by 2^(-1/halfLife)" after
// normalization. Rescales all stored weight when it nears the top of the
// float range; freed rows are rescaled too, and add overwrites them on
// reuse.
func (d *Decay) tick() {
	d.events++
	d.weight *= d.growth
	if d.weight < rescaleAbove {
		return
	}
	d.mon.Rescale(d.weight)
	for i := range d.tab.rows {
		d.tab.rows[i].weight /= d.weight
	}
	d.weight = 1
}

// Join records a worker arriving with the given protected attributes and
// score, at the present weight.
func (d *Decay) Join(id string, protected map[string]any, score float64) error {
	if id == "" {
		return errors.New("drift: empty worker id")
	}
	if _, dup := d.tab.lookup(id); dup {
		return fmt.Errorf("drift: worker %q already present", id)
	}
	cell, err := d.cells.Cell(protected)
	if err != nil {
		return err
	}
	d.join(d.tab.add(id, cell), score)
	return nil
}

// Leave removes a worker's remaining (decayed) mass.
func (d *Decay) Leave(id string) error {
	slot, ok := d.tab.lookup(id)
	if !ok {
		return fmt.Errorf("drift: unknown worker %q", id)
	}
	d.leave(slot)
	d.tab.remove(id, slot)
	return nil
}

// Rescore re-makes the worker's observation at the present weight.
func (d *Decay) Rescore(id string, score float64) error {
	slot, ok := d.tab.lookup(id)
	if !ok {
		return fmt.Errorf("drift: unknown worker %q", id)
	}
	d.rescore(slot, score)
	return nil
}

// join admits a worker just added to the table at slot.
func (d *Decay) join(slot int, score float64) {
	r := &d.tab.rows[slot]
	d.mon.JoinCell(&r.decay, r.cell, score, d.weight)
	r.weight = d.weight
	d.tick()
}

// leave removes the worker at slot; the caller frees the slot.
func (d *Decay) leave(slot int) {
	r := &d.tab.rows[slot]
	d.mon.LeaveWorker(&r.decay, r.weight)
	d.tick()
}

// rescore replaces the observation of the worker at slot.
func (d *Decay) rescore(slot int, score float64) {
	r := &d.tab.rows[slot]
	d.mon.RescoreWorker(&r.decay, r.weight, score, d.weight)
	r.weight = d.weight
	d.tick()
}

// Workers returns the tracked population size.
func (d *Decay) Workers() int { return d.mon.Workers() }

// Groups returns the number of groups with live workers.
func (d *Decay) Groups() int { return d.mon.Groups() }

// Events returns how many events have been processed.
func (d *Decay) Events() int64 { return d.events }

// Unfairness returns the average pairwise EMD between the groups'
// decay-weighted score PMFs, in O(1).
func (d *Decay) Unfairness() float64 { return d.mon.Unfairness() }
