package drift

import (
	"math"

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
// Every event (join, leave, rescore) advances time by one. A rescore
// refreshes the worker's weight to the present — the observation is
// re-made now. Unlike Window, Decay has no bit-identity replay contract:
// the differential suite compares it against a literal-math oracle within
// a float tolerance.
//
// A Watch owns its decay and feeds it every event by worker slot. It is
// not safe for concurrent use.
type Decay struct {
	mon    *monitor.Monitor
	growth float64 // per-event weight multiplier, 2^(1/halfLife)
	weight float64 // weight the next observation will carry
	// tab is the worker table of the Watch that owns the decay.
	tab *workerTable
}

// newDecay creates a half-life estimator over cells for the workers in
// tab. halfLife is in events, positive and finite as Spec.Validate holds
// it; bins defaults to 10 when <= 0. Its per-event growth factor is
// math.Exp2(1/halfLife), whose last bit may differ between architectures,
// and so may the estimates built on it.
func newDecay(cells *monitor.Cells, tab *workerTable, bins int, halfLife float64) (*Decay, error) {
	m, err := monitor.NewWithCells(cells, bins, 0)
	if err != nil {
		return nil, err
	}
	return &Decay{mon: m, growth: math.Exp2(1 / halfLife), weight: 1, tab: tab}, nil
}

// tick advances time one event: the next observation weighs growth× more,
// which is exactly "everything stored decays by 2^(-1/halfLife)" after
// normalization. Rescales all stored weight when it nears the top of the
// float range; freed rows are rescaled too, and add overwrites them on
// reuse.
func (d *Decay) tick() {
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

// Unfairness returns the average pairwise EMD between the groups'
// decay-weighted score PMFs, in O(1).
func (d *Decay) Unfairness() float64 { return d.mon.Unfairness() }
