package drift

import (
	"fmt"
	"math"
	"sort"

	"fairrank/internal/dataset"
	"fairrank/internal/emd"
	"fairrank/internal/histogram"
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
// window's explicit retraction bookkeeping. Implemented with growing
// weights — the observation admitted at event t carries weight 2^(t/h) —
// so decaying N old observations costs nothing per event; per-group
// weighted bin masses are kept incrementally and unfairness is the
// average pairwise EMD over their normalized PMFs. A read refreshes only
// the distances of groups whose mass changed since the last read (the
// k−1 of the one group an event touches) and re-reduces the cached
// triangle in (i, j) order, so it equals the full O(k²·bins) recompute
// bit for bit.
//
// Every event (Join, Leave, Rescore) advances time by one. A Rescore
// refreshes the worker's weight to the present — the observation is
// re-made now. Unlike Window, Decay has no bit-identity replay contract:
// the differential suite compares it against a literal-math oracle within
// a float tolerance.
//
// Decay is not safe for concurrent use.
type Decay struct {
	cells    *monitor.Cells
	halfLife float64
	bins     int
	// grid bins scores over [0, 1] by histogram's rule, as the monitor,
	// the window and the evaluator do; it holds no mass itself.
	grid   *histogram.Histogram
	unit   float64
	growth float64 // per-event weight multiplier, 2^(1/halfLife)
	weight float64 // weight the next observation will carry
	events int64

	byCell []*decayGroup // each cell's group, nil while it has no live worker
	order  []*decayGroup // sorted by key: deterministic pair iteration
	// tab is the worker table: a standalone estimator's own, or the table
	// of the Watch that built it, which then feeds it every event.
	tab *workerTable

	// pmfs (k·bins, by order position) and tri (the row-major upper
	// triangle of pairwise distances) cache the last read; stale means the
	// group set changed or every group was rescaled since.
	pmfs  []float64
	tri   []float64
	stale bool
}

type decayGroup struct {
	key   string
	cell  int
	bins  []float64 // decayed weighted mass per score bin
	live  int       // live workers contributing mass
	dirty bool      // mass changed since the last Unfairness read
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
	if bins <= 0 {
		bins = 10
	}
	return &Decay{
		cells:    cells,
		halfLife: halfLife,
		bins:     bins,
		grid:     histogram.MustNew(bins, 0, 1),
		unit:     1 / float64(bins),
		growth:   math.Exp2(1 / halfLife),
		weight:   1,
		tab:      tab,
	}, nil
}

// tick advances time one event: the next observation weighs growth× more,
// which is exactly "everything stored decays by 2^(-1/halfLife)" after
// normalization. Rescales all stored mass when the weight nears the top
// of the float range.
func (d *Decay) tick() {
	d.events++
	d.weight *= d.growth
	if d.weight < rescaleAbove {
		return
	}
	f := d.weight
	for _, g := range d.order {
		for i := range g.bins {
			g.bins[i] /= f
		}
	}
	// Freed rows are rescaled too; add overwrites them on reuse.
	for i := range d.tab.rows {
		d.tab.rows[i].decayWeight /= f
	}
	d.weight = 1
	d.stale = true
}

func (d *Decay) insertGroup(cell int) *decayGroup {
	g := &decayGroup{key: d.cells.Key(cell), cell: cell, bins: make([]float64, d.bins)}
	for len(d.byCell) <= cell {
		d.byCell = append(d.byCell, nil)
	}
	d.byCell[cell] = g
	pos := sort.Search(len(d.order), func(i int) bool { return d.order[i].key >= g.key })
	d.order = append(d.order, nil)
	copy(d.order[pos+1:], d.order[pos:])
	d.order[pos] = g
	d.stale = true
	return g
}

func (d *Decay) removeGroup(g *decayGroup) {
	d.byCell[g.cell] = nil
	pos := sort.Search(len(d.order), func(i int) bool { return d.order[i].key >= g.key })
	d.order = append(d.order[:pos], d.order[pos+1:]...)
	d.stale = true
}

// Join records a worker arriving with the given protected attributes and
// score, at the present weight.
func (d *Decay) Join(id string, protected map[string]any, score float64) error {
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

// Leave removes a worker's remaining (decayed) mass. A group with no live
// workers is dropped outright — its residual float dust would otherwise
// keep a departed population in the pairwise average forever.
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
	d.observe(&d.tab.rows[slot], score)
	d.tick()
}

// leave removes the worker at slot; the caller frees the slot.
func (d *Decay) leave(slot int) {
	d.subtract(&d.tab.rows[slot])
	d.tick()
}

// rescore replaces the observation of the worker at slot. If the worker
// was its group's last member, subtract drops the group and observe
// re-creates it for the refreshed observation.
func (d *Decay) rescore(slot int, score float64) {
	r := &d.tab.rows[slot]
	d.subtract(r)
	d.observe(r, score)
	d.tick()
}

// observe stores the worker's observation of score at the present weight.
func (d *Decay) observe(r *worker, score float64) {
	var g *decayGroup
	if r.cell < len(d.byCell) {
		g = d.byCell[r.cell]
	}
	if g == nil {
		g = d.insertGroup(r.cell)
	}
	bin := d.grid.BinIndex(score)
	g.bins[bin] += d.weight
	g.live++
	g.dirty = true
	r.decayBin, r.decayWeight = bin, d.weight
}

// subtract removes a worker's stored mass, clamping float dust at zero,
// and drops the group when its last live worker goes.
func (d *Decay) subtract(r *worker) {
	g := d.byCell[r.cell]
	g.bins[r.decayBin] -= r.decayWeight
	if g.bins[r.decayBin] < 0 {
		g.bins[r.decayBin] = 0
	}
	g.live--
	g.dirty = true
	if g.live == 0 {
		d.removeGroup(g)
	}
}

// Workers returns the tracked population size.
func (d *Decay) Workers() int { return len(d.tab.slots) }

// Groups returns the number of groups with live workers.
func (d *Decay) Groups() int { return len(d.order) }

// Events returns how many events have been processed.
func (d *Decay) Events() int64 { return d.events }

// Unfairness returns the average pairwise EMD between the groups'
// decay-weighted score PMFs. A read after one event costs O(k·bins) — the
// changed group's PMF and its k−1 distances — plus an O(k²) sum;
// allocation-free after the first read at a given group count.
func (d *Decay) Unfairness() float64 {
	k := len(d.order)
	if k < 2 {
		return 0
	}
	if d.stale {
		if cap(d.pmfs) < k*d.bins {
			d.pmfs = make([]float64, k*d.bins)
		}
		if cap(d.tri) < k*(k-1)/2 {
			d.tri = make([]float64, k*(k-1)/2)
		}
		d.pmfs, d.tri = d.pmfs[:k*d.bins], d.tri[:k*(k-1)/2]
		for _, g := range d.order {
			g.dirty = true
		}
		d.stale = false
	}
	for i, g := range d.order {
		if g.dirty {
			d.normalize(i, g)
		}
	}
	for i, g := range d.order {
		if !g.dirty {
			continue
		}
		g.dirty = false
		for j := range d.order {
			if j == i {
				continue
			}
			lo, hi := min(i, j), max(i, j)
			d.tri[lo*(2*k-lo-1)/2+hi-lo-1] = emd.PMFDistance(d.pmf(lo), d.pmf(hi), d.unit)
		}
	}
	sum := 0.0
	for _, v := range d.tri {
		sum += v
	}
	return sum / float64(len(d.tri))
}

func (d *Decay) pmf(i int) []float64 { return d.pmfs[i*d.bins : (i+1)*d.bins] }

// normalize writes the PMF of g, at order position i, into the cache:
// uniform when g holds no mass.
func (d *Decay) normalize(i int, g *decayGroup) {
	dst := d.pmf(i)
	total := 0.0
	for _, c := range g.bins {
		total += c
	}
	if total == 0 {
		u := 1 / float64(d.bins)
		for j := range dst {
			dst[j] = u
		}
		return
	}
	for j, c := range g.bins {
		dst[j] = c / total
	}
}
