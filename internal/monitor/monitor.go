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
	keys      GroupKeyer
	bins      int
	threshold float64
	unit      float64 // EMD ground distance between adjacent bins

	groups map[string]*group
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
	// workers maps worker ID → (group key, score) so departures and
	// re-scores need only the ID.
	workers map[string]workerState
	// minWorkers suppresses alerts until the population is large enough
	// for the unfairness estimate to be more than sampling noise.
	minWorkers int
	// lastErr records the first event-processing failure that may have
	// left the triangle inconsistent; UnfairnessErr surfaces it.
	lastErr error
	// keyBuf is the reusable scratch for group-key construction, so the
	// steady state (every group already known) allocates nothing: the key
	// is built here and only materialized as a string when a new group is
	// born.
	keyBuf []byte
	// met holds telemetry handles (see SetMetrics); its zero value is the
	// disabled state and costs a few predicted branches per event.
	met monitorMetrics
}

// group is one non-empty partition cell: its histogram plus the cached
// PMF the distance computations compare (refreshed in place whenever the
// histogram changes, so an event never re-normalizes untouched groups).
type group struct {
	key  string
	idx  int // position in Monitor.order
	hist *histogram.Histogram
	pmf  []float64
}

type workerState struct {
	g     *group
	score float64
}

// New creates a monitor over the partitioning induced by the named
// protected attributes. threshold is the unfairness level at which Alert
// reports true; bins defaults to 10 when <= 0.
func New(schema *dataset.Schema, attrs []string, bins int, threshold float64) (*Monitor, error) {
	keys, err := NewGroupKeyer(schema, attrs)
	if err != nil {
		return nil, err
	}
	if threshold < 0 {
		return nil, errors.New("monitor: negative threshold")
	}
	if bins <= 0 {
		bins = 10
	}
	return &Monitor{
		keys:      keys,
		bins:      bins,
		threshold: threshold,
		unit:      1 / float64(bins), // GroundScore over [0,1]: the bin width
		groups:    map[string]*group{},
		workers:   map[string]workerState{},
	}, nil
}

// GroupKeyer maps a worker's protected attribute values to the key of its
// partition cell. It is the one key builder of continuous auditing: the
// monitor and the drift estimators all key their groups with it, so they
// partition a stream identically. Immutable once built.
type GroupKeyer struct {
	schema *dataset.Schema
	attrs  []int // monitored protected attribute indices
}

// NewGroupKeyer resolves the named protected attributes of a validated
// schema into a key builder.
func NewGroupKeyer(schema *dataset.Schema, attrs []string) (GroupKeyer, error) {
	if err := schema.Validate(); err != nil {
		return GroupKeyer{}, err
	}
	if len(attrs) == 0 {
		return GroupKeyer{}, errors.New("monitor: need at least one attribute")
	}
	k := GroupKeyer{schema: schema.Clone()}
	for _, name := range attrs {
		i := schema.ProtectedIndex(name)
		if i < 0 {
			return GroupKeyer{}, fmt.Errorf("monitor: %q is not a protected attribute", name)
		}
		k.attrs = append(k.attrs, i)
	}
	return k, nil
}

// AppendKey appends the partition cell of a worker with the given
// protected attribute values (raw strings for categorical, numbers for
// numeric) to dst and returns the extended slice. Building into a
// reusable scratch keeps the per-event path allocation-free: group lookup
// converts the bytes in place (the compiler elides the string copy for
// map reads) and only a group birth materializes a real string.
func (k *GroupKeyer) AppendKey(dst []byte, protected map[string]any) ([]byte, error) {
	for _, a := range k.attrs {
		attr := k.schema.Protected[a]
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

// insertGroup adds a new empty group at its sorted position. Its triangle
// row is left zero; the caller must touch it after adding the first score.
func (m *Monitor) insertGroup(key string) *group {
	g := &group{key: key, hist: histogram.MustNew(m.bins, 0, 1), pmf: make([]float64, m.bins)}
	m.groups[key] = g
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
	delete(m.groups, g.key)
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
	_, err := m.JoinCell(id, protected, score)
	return err
}

// JoinCell is Join that also returns the worker's partition cell key, the
// group key Join resolves anyway, so a caller that tracks workers by cell
// need not build it a second time. The string is the group's own key, so
// returning it allocates nothing.
func (m *Monitor) JoinCell(id string, protected map[string]any, score float64) (string, error) {
	if id == "" {
		return "", errors.New("monitor: empty worker id")
	}
	if _, dup := m.workers[id]; dup {
		return "", fmt.Errorf("monitor: worker %q already present", id)
	}
	buf, err := m.keys.AppendKey(m.keyBuf[:0], protected)
	if err != nil {
		return "", err
	}
	m.keyBuf = buf
	g := m.groups[string(buf)]
	if g == nil {
		g = m.insertGroup(string(buf))
	}
	g.hist.Add(score)
	m.touch(g)
	m.workers[id] = workerState{g: g, score: score}
	m.met.joins.Inc()
	m.met.sync(m)
	return g.key, nil
}

// Leave records a worker departing the platform.
func (m *Monitor) Leave(id string) error {
	st, ok := m.workers[id]
	if !ok {
		return fmt.Errorf("monitor: unknown worker %q", id)
	}
	g := st.g
	if err := g.hist.Remove(st.score); err != nil {
		err = fmt.Errorf("monitor: leave %q: %w", id, err)
		m.lastErr = err
		return err
	}
	if g.hist.Empty() {
		m.removeGroup(g)
	} else {
		m.touch(g)
	}
	delete(m.workers, id)
	m.met.leaves.Inc()
	m.met.sync(m)
	return nil
}

// Rescore updates a worker's score (e.g. after new reviews arrive).
func (m *Monitor) Rescore(id string, score float64) error {
	st, ok := m.workers[id]
	if !ok {
		return fmt.Errorf("monitor: unknown worker %q", id)
	}
	g := st.g
	if err := g.hist.Remove(st.score); err != nil {
		err = fmt.Errorf("monitor: rescore %q: %w", id, err)
		m.lastErr = err
		return err
	}
	g.hist.Add(score)
	m.touch(g)
	st.score = score
	m.workers[id] = st
	m.met.rescores.Inc()
	m.met.sync(m)
	return nil
}

// Workers returns the number of tracked workers.
func (m *Monitor) Workers() int { return len(m.workers) }

// Groups returns the number of non-empty groups.
func (m *Monitor) Groups() int { return len(m.groups) }

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

// Clone returns a deep copy of the monitor: groups, histograms, the
// distance triangle, the sum tree and the worker table are all duplicated
// (the immutable key builder is shared), so events applied to either side
// never affect the other. Windowed estimators and tests use it to
// checkpoint state without replaying the stream. Telemetry handles are NOT
// copied — the clone starts with metrics disabled (attach its own registry
// via SetMetrics if needed) so counters never double-count a forked
// monitor.
func (m *Monitor) Clone() *Monitor {
	c := &Monitor{
		keys:       m.keys,
		bins:       m.bins,
		threshold:  m.threshold,
		unit:       m.unit,
		minWorkers: m.minWorkers,
		lastErr:    m.lastErr,
		groups:     make(map[string]*group, len(m.groups)),
		workers:    make(map[string]workerState, len(m.workers)),
		order:      make([]*group, 0, len(m.order)),
	}
	for _, g := range m.order {
		ng := &group{key: g.key, idx: g.idx, hist: g.hist.Clone(), pmf: append([]float64(nil), g.pmf...)}
		c.groups[ng.key] = ng
		c.order = append(c.order, ng)
	}
	c.tri = append([]float64(nil), m.tri...)
	if m.sum != nil {
		// Same leaf count ⇒ same tree shape ⇒ bit-identical root (the
		// sumTree reduction order is a pure function of the leaf count).
		c.sum = newSumTree(c.tri)
	}
	for id, st := range m.workers {
		c.workers[id] = workerState{g: c.groups[st.g.key], score: st.score}
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
	return u, u > m.threshold && len(m.workers) >= m.minWorkers
}
