// Package monitor provides continuous fairness monitoring for a live
// marketplace. The paper audits a static snapshot of workers; on a real
// platform workers join, leave, and are re-scored constantly. Monitor
// maintains the per-group score histograms of a fixed partitioning
// incrementally and keeps the flat upper triangle of pairwise EMDs alive
// across events: a stream event touches exactly one group, so only the k-1
// distances involving that group are recomputed (O(k·bins) work) and a
// segment sum tree over the triangle refreshes the running total in
// O(k·log k) — instead of the old O(k²·bins) rebuild. A group's birth or
// death only edits the key-ordered group list; the next read lays the
// triangle out once over the groups it then finds, copying the distances
// it still holds and computing the rest, so seeding k groups computes each
// of their O(k²) distances once instead of laying out a triangle per
// birth. Unfairness is therefore cheap enough to re-evaluate after every
// event at marketplace traffic rates, and the monitor raises an alert when
// it drifts past a threshold.
//
// Every observation carries a weight: 1 on Join and Rescore, the
// caller's on JoinCell and RescoreWorker. A group's histogram sums its
// workers' weights per bin; drift.Decay is this monitor fed growing ones.
// The monitor keeps no per-worker weight: a caller that passes weights
// other than 1 keeps them and hands each back on LeaveWorker and
// RescoreWorker.
package monitor

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"fairrank/internal/dataset"
	"fairrank/internal/emd"
	"fairrank/internal/histogram"
)

// Monitor tracks the unfairness of the partitioning induced by a fixed set
// of protected attributes, under a stream of worker arrivals, departures
// and re-scores. It is not safe for concurrent use; wrap it with a mutex
// if events arrive from multiple goroutines.
type Monitor struct {
	cells     *Cells
	bins      int
	threshold float64
	unit      float64 // EMD ground distance between adjacent bins
	// grid bins scores over [0, 1] by histogram's rule, as the evaluator
	// does; it holds no mass itself.
	grid *histogram.Histogram

	// byCell holds each interned cell's group, nil while the cell is
	// empty, so an event finds its group by index.
	byCell []*group
	// order holds the non-empty groups sorted by key.
	order []*group
	// tri is the flat upper triangle of pairwise EMDs over the laid groups
	// of the last layout: the distance between the groups at positions
	// i < j of that layout lives at tri(laid, i, j). Stream events rewrite
	// only the changed group's row.
	tri  []float64
	laid int
	// stale reports a group birth or death since the last layout: order
	// no longer lists the laid groups, and the next read lays tri out
	// again (layout).
	stale bool
	// sum reduces tri; its root divided by the pair count is the current
	// unfairness. The tree gives O(log) exact updates with a reduction
	// order fixed by the leaf count, so the incremental value is
	// bit-identical to Recompute's from-scratch rebuild.
	sum *sumTree
	// workers maps worker ID → state for the string-id methods. A caller
	// that keeps its own worker table holds the Worker values itself and
	// calls JoinCell, LeaveWorker and RescoreWorker, which these wrap.
	workers map[string]Worker
	// n counts tracked workers, whichever path added them.
	n int
	// minWorkers suppresses alerts until the population is large enough
	// for the unfairness estimate to be more than sampling noise.
	minWorkers int
}

// group is one partition cell with live workers: the weight its workers
// put in each score bin, how many workers that is, and the cached PMF the
// distance computations compare (refreshed in place whenever the masses
// change, so an event never re-normalizes untouched groups).
type group struct {
	key  string
	cell int // index in the monitor's Cells
	// idx is the group's position in the last layout of the triangle, -1
	// for a group born since; touched marks a group whose masses changed
	// while the monitor was stale, so its distances are computed afresh.
	idx     int
	touched bool
	live    int
	mass    []float64
	pmf     []float64
}

// Worker is one tracked worker's state in a Monitor: the group it counts
// in and the bin its score falls in. JoinCell fills it; LeaveWorker and
// RescoreWorker take it back, with the weight it was observed at. The zero
// Worker is not tracked.
type Worker struct {
	g   *group
	bin int
}

// New creates a monitor over the partitioning induced by the named
// protected attributes. threshold is the unfairness level at which Alert
// reports true; bins defaults to 10 when <= 0.
func New(schema *dataset.Schema, attrs []string, bins int, threshold float64) (*Monitor, error) {
	cells, err := NewCells(schema, attrs)
	if err != nil {
		return nil, err
	}
	return NewWithCells(cells, bins, threshold)
}

// NewWithCells creates a monitor whose groups are the cells of cells,
// which it may share with other estimators fed from the same stream.
func NewWithCells(cells *Cells, bins int, threshold float64) (*Monitor, error) {
	if threshold < 0 {
		return nil, errors.New("monitor: negative threshold")
	}
	if bins <= 0 {
		bins = 10
	}
	return &Monitor{
		cells:     cells,
		bins:      bins,
		threshold: threshold,
		unit:      1 / float64(bins), // GroundScore over [0,1]: the bin width
		grid:      histogram.MustNew(bins, 0, 1),
		workers:   map[string]Worker{},
	}, nil
}

// Cells interns the partition cells of one set of protected attributes:
// each distinct cell gets a dense index the first time a worker's values
// resolve to it. It is the one key builder of continuous auditing — the
// monitor and the drift estimators all partition with it — and
// estimators fed from one stream share one Cells, so an arrival builds
// its cell key once and each estimator finds its group for the cell by
// index. The index only grows, bounded by the product of the attributes'
// category and bucket counts. Not safe for concurrent use.
type Cells struct {
	schema *dataset.Schema
	attrs  []int // monitored protected attribute indices
	index  map[string]int
	keys   []string
	// buf is the key scratch: resolving a known cell converts it in place
	// for the map read, so only a new cell materializes a string.
	buf []byte
}

// NewCells resolves the named protected attributes of a validated schema
// into an empty cell index.
func NewCells(schema *dataset.Schema, attrs []string) (*Cells, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if len(attrs) == 0 {
		return nil, errors.New("monitor: need at least one attribute")
	}
	c := &Cells{schema: schema.Clone(), index: map[string]int{}}
	for _, name := range attrs {
		i := schema.ProtectedIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("monitor: %q is not a protected attribute", name)
		}
		c.attrs = append(c.attrs, i)
	}
	return c, nil
}

// Cell returns the index of the partition cell of a worker with the given
// protected attribute values (raw strings for categorical, finite numbers
// for numeric), interning the cell on first sight.
func (c *Cells) Cell(protected map[string]any) (int, error) {
	buf, err := c.appendKey(c.buf[:0], protected)
	if err != nil {
		return 0, err
	}
	c.buf = buf
	if i, ok := c.index[string(buf)]; ok {
		return i, nil
	}
	key := string(buf)
	c.index[key] = len(c.keys)
	c.keys = append(c.keys, key)
	return len(c.keys) - 1, nil
}

// Key returns a cell's key; keys order the groups of every estimator.
func (c *Cells) Key(cell int) string { return c.keys[cell] }

func (c *Cells) appendKey(dst []byte, protected map[string]any) ([]byte, error) {
	for _, a := range c.attrs {
		attr := c.schema.Protected[a]
		v, ok := protected[attr.Name]
		if !ok {
			return nil, fmt.Errorf("monitor: missing attribute %q", attr.Name)
		}
		var code int
		switch attr.Kind {
		case dataset.Categorical:
			s, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("monitor: attribute %q wants a string, got %T", attr.Name, v)
			}
			code = attr.CategoryIndex(s)
			if code < 0 {
				return nil, fmt.Errorf("monitor: attribute %q has no value %q", attr.Name, s)
			}
		case dataset.Numeric:
			f, ok := toFloat(v)
			if !ok {
				return nil, fmt.Errorf("monitor: attribute %q wants a number, got %T", attr.Name, v)
			}
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return nil, fmt.Errorf("monitor: attribute %q: value is NaN or infinite", attr.Name)
			}
			code = attr.BucketIndex(f)
		}
		dst = strconv.AppendInt(dst, int64(a), 10)
		dst = append(dst, '=')
		dst = strconv.AppendInt(dst, int64(code), 10)
		dst = append(dst, '|')
	}
	return dst, nil
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int64:
		return float64(x), true
	default:
		return 0, false
	}
}

// tri maps pair (i, j) with i < j to its slot in the flat upper triangle
// of a k×k distance matrix.
func triSlot(k, i, j int) int { return i*(2*k-i-1)/2 + j - i - 1 }

// normalize writes g's masses divided by their sum into dst without
// allocating: Histogram.PMF's normalization (uniform when empty), with the
// sum taken in bin order. For whole-number masses that sum is exactly the
// count of observations.
func (g *group) normalize(dst []float64) {
	total := 0.0
	for _, c := range g.mass {
		total += c
	}
	if total == 0 {
		u := 1 / float64(len(dst))
		for i := range dst {
			dst[i] = u
		}
		return
	}
	for i, c := range g.mass {
		dst[i] = c / total
	}
}

// touch refreshes g's cached PMF after its masses changed and, while the
// triangle is laid out over the current groups, the k-1 entries involving
// g — the O(k) delta path every non-structural stream event takes. On a
// stale monitor it marks g for the next layout instead.
func (m *Monitor) touch(g *group) {
	g.normalize(g.pmf)
	if m.stale {
		g.touched = true
		return
	}
	k := len(m.order)
	for _, o := range m.order {
		if o == g {
			continue
		}
		i, j := g.idx, o.idx
		if i > j {
			i, j = j, i
		}
		slot := triSlot(k, i, j)
		d := emd.PMFDistance(m.order[i].pmf, m.order[j].pmf, m.unit)
		m.tri[slot] = d
		m.sum.set(slot, d)
	}
}

// layout lays the triangle out over the current groups after births or
// deaths, and builds the sum tree over it. A distance between two groups
// that were both laid last time and untouched since is copied; every
// other is computed. Either way each entry is the PMFDistance of its
// groups' current PMFs, as touch keeps it between layouts, so the root
// is the one Recompute builds.
func (m *Monitor) layout() {
	k := len(m.order)
	tri := make([]float64, k*(k-1)/2)
	s := 0
	for i, a := range m.order {
		for _, b := range m.order[i+1:] {
			if a.idx >= 0 && b.idx >= 0 && !a.touched && !b.touched {
				// Both keep their key order, so a.idx < b.idx.
				tri[s] = m.tri[triSlot(m.laid, a.idx, b.idx)]
			} else {
				tri[s] = emd.PMFDistance(a.pmf, b.pmf, m.unit)
			}
			s++
		}
	}
	for i, g := range m.order {
		g.idx, g.touched = i, false
	}
	m.tri, m.laid, m.sum, m.stale = tri, k, newSumTree(tri), false
}

// insertGroup adds a new empty group for cell at its sorted position and
// leaves the triangle to the next layout. The caller touches the group
// after adding the first score.
func (m *Monitor) insertGroup(cell int) *group {
	key := m.cells.Key(cell)
	g := &group{key: key, cell: cell, idx: -1, mass: make([]float64, m.bins), pmf: make([]float64, m.bins)}
	for len(m.byCell) <= cell {
		m.byCell = append(m.byCell, nil)
	}
	m.byCell[cell] = g
	pos := sort.Search(len(m.order), func(i int) bool { return m.order[i].key >= key })
	m.order = slices.Insert(m.order, pos, g)
	m.stale = true
	return g
}

// removeGroup drops an emptied group and leaves the triangle to the next
// layout.
func (m *Monitor) removeGroup(g *group) {
	m.byCell[g.cell] = nil
	pos := slices.Index(m.order, g)
	m.order = slices.Delete(m.order, pos, pos+1)
	m.stale = true
}

// Join records a worker arriving (or being hired onto) the platform with
// the given protected attributes and current score.
func (m *Monitor) Join(id string, protected map[string]any, score float64) error {
	if id == "" {
		return errors.New("monitor: empty worker id")
	}
	if _, dup := m.workers[id]; dup {
		return fmt.Errorf("monitor: worker %q already present", id)
	}
	cell, err := m.cells.Cell(protected)
	if err != nil {
		return err
	}
	var w Worker
	m.JoinCell(&w, cell, score, 1)
	m.workers[id] = w
	return nil
}

// Leave records a worker departing the platform.
func (m *Monitor) Leave(id string) error {
	w, ok := m.workers[id]
	if !ok {
		return fmt.Errorf("monitor: unknown worker %q", id)
	}
	m.LeaveWorker(&w, 1)
	delete(m.workers, id)
	return nil
}

// Rescore updates a worker's score (e.g. after new reviews arrive).
func (m *Monitor) Rescore(id string, score float64) error {
	w, ok := m.workers[id]
	if !ok {
		return fmt.Errorf("monitor: unknown worker %q", id)
	}
	m.RescoreWorker(&w, 1, score, 1)
	m.workers[id] = w
	return nil
}

// JoinCell records a worker arriving in cell (an index of the monitor's
// Cells) with the given score, observed with the given positive weight,
// and stores its state in w. It is Join for a caller that tracks workers
// itself and has resolved the cell already.
func (m *Monitor) JoinCell(w *Worker, cell int, score, weight float64) {
	var g *group
	if cell < len(m.byCell) {
		g = m.byCell[cell]
	}
	if g == nil {
		g = m.insertGroup(cell)
	}
	bin := m.grid.BinIndex(score)
	g.mass[bin] += weight
	g.live++
	m.touch(g)
	*w = Worker{g: g, bin: bin}
	m.n++
}

// LeaveWorker records the departure of the worker whose state JoinCell
// stored in w, observed at the given weight. A group whose last worker
// leaves is dropped outright, so float dust left in its masses never keeps
// a departed population in the average.
func (m *Monitor) LeaveWorker(w *Worker, weight float64) {
	g := w.g
	if g.live--; g.live == 0 {
		m.removeGroup(g)
	} else {
		g.subtract(w.bin, weight)
		m.touch(g)
	}
	*w = Worker{}
	m.n--
}

// RescoreWorker replaces the observation of the worker whose state is w,
// made at weight old, with one of score at the given weight.
func (m *Monitor) RescoreWorker(w *Worker, old, score, weight float64) {
	g := w.g
	if g.live == 1 {
		clear(g.mass) // the worker's is the group's only mass
	} else {
		g.subtract(w.bin, old)
	}
	w.bin = m.grid.BinIndex(score)
	g.mass[w.bin] += weight
	m.touch(g)
}

// subtract takes weight out of bin, clamping float dust at zero.
func (g *group) subtract(bin int, weight float64) {
	c := &g.mass[bin]
	if *c -= weight; *c < 0 {
		*c = 0
	}
}

// Rescale divides every group's masses by f. A caller whose weights grow
// without bound calls it before they leave the float range, and divides
// the weights it keeps by f too; normalization cancels the common scale up
// to rounding. Workers tracked by id weigh 1 and are not rescaled, so a
// monitor that rescales is fed through JoinCell alone. Each group is
// touched right after its masses are divided, so every distance is last
// computed once both of its groups are.
func (m *Monitor) Rescale(f float64) {
	for _, g := range m.order {
		for i := range g.mass {
			g.mass[i] /= f
		}
		m.touch(g)
	}
}

// Workers returns the number of tracked workers.
func (m *Monitor) Workers() int { return m.n }

// Groups returns the number of non-empty groups.
func (m *Monitor) Groups() int { return len(m.order) }

// Unfairness returns the current average pairwise EMD between the
// non-empty groups' score histograms, read off the incrementally
// maintained triangle in O(1) once it is laid out over the current groups
// (after a group birth or death, the read lays it out first); 0 with
// fewer than two groups.
func (m *Monitor) Unfairness() float64 {
	if m.stale {
		m.layout()
	}
	if len(m.order) < 2 {
		return 0
	}
	return m.sum.root() / float64(len(m.tri))
}

// Recompute rebuilds every group PMF and pairwise distance from scratch
// and reduces them with a fresh sum tree of the same shape, without
// consulting (or mutating) the incremental state. It exists as the
// correctness oracle for the delta path: Recompute's result is
// bit-identical to Unfairness's.
func (m *Monitor) Recompute() float64 {
	k := len(m.order)
	if k < 2 {
		return 0
	}
	pmfs := make([][]float64, k)
	for i, g := range m.order {
		pmfs[i] = make([]float64, m.bins)
		g.normalize(pmfs[i])
	}
	tri := make([]float64, k*(k-1)/2)
	s := 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			tri[s] = emd.PMFDistance(pmfs[i], pmfs[j], m.unit)
			s++
		}
	}
	return newSumTree(tri).root() / float64(len(tri))
}

// SetMinWorkers sets a warm-up guard: Alert never reports a breach while
// fewer than n workers are tracked, avoiding false alarms from tiny-sample
// noise. The default is 0 (no guard); Unfairness is unaffected.
func (m *Monitor) SetMinWorkers(n int) { m.minWorkers = n }

// Alert reports the current unfairness and whether it breaches the
// configured threshold (subject to the SetMinWorkers warm-up guard).
//
// Alert is threshold-only: it compares the instantaneous unbounded-history
// estimate against one fixed level, with no hysteresis, no cooldown, and no
// sensitivity to drift (a slow worsening never crosses a generous static
// threshold). Long-running deployments that need windowed estimates,
// delta-over-window or window-vs-baseline drift rules, and flap-resistant
// alarm lifecycles should use package internal/drift, which layers all of
// that on top of this monitor.
func (m *Monitor) Alert() (unfairness float64, breached bool) {
	u := m.Unfairness()
	return u, u > m.threshold && m.n >= m.minWorkers
}
