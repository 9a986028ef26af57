// Package monitor provides continuous fairness monitoring for a live
// marketplace. The paper audits a static snapshot of workers; on a real
// platform workers join, leave, and are re-scored constantly. Monitor
// maintains the per-group score histograms of a fixed partitioning
// incrementally and, like the core engine, keeps the flat upper triangle
// of pairwise EMDs alive across events: a stream event touches exactly one
// group, so only the k-1 distances involving that group are recomputed
// (O(k·bins) work) and a segment sum tree over the triangle refreshes the
// running total in O(k·log k) — instead of the old O(k²·bins) rebuild.
// Unfairness is therefore cheap enough to re-evaluate after every event at
// marketplace traffic rates, and the monitor raises an alert when it
// drifts past a threshold.
package monitor

import (
	"errors"
	"fmt"
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

	// byCell holds each interned cell's group, nil while the cell is
	// empty, so an event finds its group by index.
	byCell []*group
	// order holds the non-empty groups sorted by key; a group's index in
	// order addresses its rows in the distance triangle.
	order []*group
	// tri is the flat upper triangle of pairwise EMDs over order: the
	// distance between groups i < j lives at tri(k, i, j). Stream events
	// rewrite only the changed group's row.
	tri []float64
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
	// lastErr records the first event-processing failure that may have
	// left the triangle inconsistent; UnfairnessErr surfaces it.
	lastErr error
	// met holds telemetry handles (see SetMetrics); its zero value is the
	// disabled state and costs a few predicted branches per event.
	met monitorMetrics
}

// group is one non-empty partition cell: its histogram plus the cached
// PMF the distance computations compare (refreshed in place whenever the
// histogram changes, so an event never re-normalizes untouched groups).
type group struct {
	key  string
	cell int // index in the monitor's Cells
	idx  int // position in Monitor.order
	hist *histogram.Histogram
	pmf  []float64
}

// Worker is one tracked worker's state in a Monitor: the group it counts
// in and its current score. JoinCell fills it; LeaveWorker and
// RescoreWorker take it back. The zero Worker is not tracked.
type Worker struct {
	g     *group
	score float64
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
// protected attribute values (raw strings for categorical, numbers for
// numeric), interning the cell on first sight.
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

func (c *Cells) clone() *Cells {
	out := &Cells{schema: c.schema, attrs: c.attrs, index: make(map[string]int, len(c.index)), keys: append([]string(nil), c.keys...)}
	for k, i := range c.index {
		out.index[k] = i
	}
	return out
}

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

// pmfInto writes h's PMF into dst without allocating, with exactly
// Histogram.PMF's normalization (uniform when empty).
func pmfInto(h *histogram.Histogram, dst []float64) {
	total := h.Total()
	if total == 0 {
		u := 1 / float64(len(dst))
		for i := range dst {
			dst[i] = u
		}
		return
	}
	for i := range dst {
		dst[i] = h.Count(i) / total
	}
}

// touch refreshes g's cached PMF and the k-1 triangle entries involving g
// after its histogram changed — the O(k) delta path every non-structural
// stream event takes.
func (m *Monitor) touch(g *group) {
	pmfInto(g.hist, g.pmf)
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
	if k > 1 {
		m.met.distUpdates.Add(int64(k - 1))
		m.met.treeUpdates.Add(int64(k - 1))
	}
}

// rebuild re-derives order indices, the triangle and the sum tree after a
// structural change (group born or died), copying every surviving distance
// from the old triangle via oldIdx (a new position's previous index, -1
// for a new group whose row the caller fills via touch). Structural events
// are O(k²) but rare — the steady-state group set of a marketplace is
// fixed; per-worker events take the O(k) touch path.
func (m *Monitor) rebuild(oldK int, oldTri []float64, oldIdx []int) {
	k := len(m.order)
	for i, g := range m.order {
		g.idx = i
	}
	m.tri = make([]float64, k*(k-1)/2)
	for i := 0; i < k; i++ {
		if oldIdx[i] < 0 {
			continue
		}
		for j := i + 1; j < k; j++ {
			if oldIdx[j] < 0 {
				continue
			}
			m.tri[triSlot(k, i, j)] = oldTri[triSlot(oldK, oldIdx[i], oldIdx[j])]
		}
	}
	m.sum = newSumTree(m.tri)
	m.met.rebuilds.Inc()
}

// insertGroup adds a new empty group for cell at its sorted position. Its
// triangle row is left zero; the caller must touch it after adding the
// first score.
func (m *Monitor) insertGroup(cell int) *group {
	key := m.cells.Key(cell)
	g := &group{key: key, cell: cell, hist: histogram.MustNew(m.bins, 0, 1), pmf: make([]float64, m.bins)}
	for len(m.byCell) <= cell {
		m.byCell = append(m.byCell, nil)
	}
	m.byCell[cell] = g
	pos := sort.Search(len(m.order), func(i int) bool { return m.order[i].key >= key })
	oldK, oldTri := len(m.order), m.tri
	m.order = append(m.order, nil)
	copy(m.order[pos+1:], m.order[pos:])
	m.order[pos] = g
	oldIdx := make([]int, len(m.order))
	for i := range oldIdx {
		switch {
		case i < pos:
			oldIdx[i] = i
		case i == pos:
			oldIdx[i] = -1
		default:
			oldIdx[i] = i - 1
		}
	}
	m.rebuild(oldK, oldTri, oldIdx)
	return g
}

// removeGroup drops an emptied group, compacting the triangle.
func (m *Monitor) removeGroup(g *group) {
	m.byCell[g.cell] = nil
	pos := g.idx
	oldK, oldTri := len(m.order), m.tri
	m.order = append(m.order[:pos], m.order[pos+1:]...)
	oldIdx := make([]int, len(m.order))
	for i := range oldIdx {
		if i < pos {
			oldIdx[i] = i
		} else {
			oldIdx[i] = i + 1
		}
	}
	m.rebuild(oldK, oldTri, oldIdx)
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
	m.JoinCell(&w, cell, score)
	m.workers[id] = w
	return nil
}

// Leave records a worker departing the platform.
func (m *Monitor) Leave(id string) error {
	w, ok := m.workers[id]
	if !ok {
		return fmt.Errorf("monitor: unknown worker %q", id)
	}
	if err := m.LeaveWorker(id, &w); err != nil {
		return err
	}
	delete(m.workers, id)
	return nil
}

// Rescore updates a worker's score (e.g. after new reviews arrive).
func (m *Monitor) Rescore(id string, score float64) error {
	w, ok := m.workers[id]
	if !ok {
		return fmt.Errorf("monitor: unknown worker %q", id)
	}
	if err := m.RescoreWorker(id, &w, score); err != nil {
		return err
	}
	m.workers[id] = w
	return nil
}

// JoinCell records a worker arriving in cell (an index of the monitor's
// Cells) with the given score, storing its state in w. It is Join for a
// caller that tracks workers itself and has resolved the cell already.
func (m *Monitor) JoinCell(w *Worker, cell int, score float64) {
	var g *group
	if cell < len(m.byCell) {
		g = m.byCell[cell]
	}
	if g == nil {
		g = m.insertGroup(cell)
	}
	g.hist.Add(score)
	m.touch(g)
	*w = Worker{g: g, score: score}
	m.n++
	m.met.joins.Inc()
	m.met.sync(m)
}

// LeaveWorker records the departure of the worker whose state JoinCell
// stored in w; id only names the worker in errors.
func (m *Monitor) LeaveWorker(id string, w *Worker) error {
	g := w.g
	if err := g.hist.Remove(w.score); err != nil {
		err = fmt.Errorf("monitor: leave %q: %w", id, err)
		m.lastErr = err
		return err
	}
	if g.hist.Empty() {
		m.removeGroup(g)
	} else {
		m.touch(g)
	}
	*w = Worker{}
	m.n--
	m.met.leaves.Inc()
	m.met.sync(m)
	return nil
}

// RescoreWorker updates the score of the worker whose state is w; id only
// names the worker in errors.
func (m *Monitor) RescoreWorker(id string, w *Worker, score float64) error {
	g := w.g
	if err := g.hist.Remove(w.score); err != nil {
		err = fmt.Errorf("monitor: rescore %q: %w", id, err)
		m.lastErr = err
		return err
	}
	g.hist.Add(score)
	m.touch(g)
	w.score = score
	m.met.rescores.Inc()
	m.met.sync(m)
	return nil
}

// Workers returns the number of tracked workers.
func (m *Monitor) Workers() int { return m.n }

// Groups returns the number of non-empty groups.
func (m *Monitor) Groups() int { return len(m.order) }

// UnfairnessErr returns the current average pairwise EMD between the
// non-empty groups' score histograms, read off the incrementally
// maintained triangle in O(1). It returns a non-nil error if an earlier
// event failed in a way that may have left the monitor's bookkeeping
// inconsistent (e.g. a Leave or Rescore whose histogram removal failed),
// in which case the value is the best available estimate.
func (m *Monitor) UnfairnessErr() (float64, error) {
	if len(m.order) < 2 {
		return 0, m.lastErr
	}
	return m.sum.root() / float64(len(m.tri)), m.lastErr
}

// Unfairness is the lossy convenience wrapper around UnfairnessErr: it
// reports 0 whenever an error is pending, so callers that cannot handle
// errors fail toward "no unfairness signal" rather than a stale value.
// Monitoring loops should prefer UnfairnessErr.
func (m *Monitor) Unfairness() float64 {
	u, err := m.UnfairnessErr()
	if err != nil {
		return 0
	}
	return u
}

// Recompute rebuilds every group PMF and pairwise distance from scratch
// and reduces them with a fresh sum tree of the same shape, without
// consulting (or mutating) the incremental state. It exists as the
// correctness oracle for the delta path: Recompute's result is
// bit-identical to UnfairnessErr's whenever the monitor is consistent.
func (m *Monitor) Recompute() (float64, error) {
	k := len(m.order)
	if k < 2 {
		return 0, m.lastErr
	}
	pmfs := make([][]float64, k)
	for i, g := range m.order {
		pmfs[i] = g.hist.PMF()
	}
	tri := make([]float64, k*(k-1)/2)
	s := 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			tri[s] = emd.PMFDistance(pmfs[i], pmfs[j], m.unit)
			s++
		}
	}
	return newSumTree(tri).root() / float64(len(tri)), m.lastErr
}

// Clone returns a deep copy of the monitor: the cell index, groups,
// histograms, the distance triangle, the sum tree and the worker table
// are all duplicated, so events applied to either side never affect the
// other. It is for monitors fed through Join, Leave and Rescore: workers a
// caller tracks in its own table have no id here to clone. Tests use it
// to checkpoint state without replaying the stream. Telemetry handles are NOT copied — the clone
// starts with metrics disabled (attach its own registry via SetMetrics if
// needed) so counters never double-count a forked monitor.
func (m *Monitor) Clone() *Monitor {
	c := &Monitor{
		cells:      m.cells.clone(),
		bins:       m.bins,
		threshold:  m.threshold,
		unit:       m.unit,
		minWorkers: m.minWorkers,
		lastErr:    m.lastErr,
		n:          m.n,
		byCell:     make([]*group, len(m.byCell)),
		workers:    make(map[string]Worker, len(m.workers)),
		order:      make([]*group, 0, len(m.order)),
	}
	for _, g := range m.order {
		ng := &group{key: g.key, cell: g.cell, idx: g.idx, hist: g.hist.Clone(), pmf: append([]float64(nil), g.pmf...)}
		c.byCell[ng.cell] = ng
		c.order = append(c.order, ng)
	}
	c.tri = append([]float64(nil), m.tri...)
	if m.sum != nil {
		// Same leaf count ⇒ same tree shape ⇒ bit-identical root (the
		// sumTree reduction order is a pure function of the leaf count).
		c.sum = newSumTree(c.tri)
	}
	for id, w := range m.workers {
		c.workers[id] = Worker{g: c.byCell[w.g.cell], score: w.score}
	}
	return c
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
