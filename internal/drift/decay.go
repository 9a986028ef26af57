package drift

import (
	"fmt"
	"math"
	"sort"

	"fairrank/internal/dataset"
	"fairrank/internal/emd"
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
// average pairwise EMD over their normalized PMFs, recomputed on read in
// O(k²·bins).
//
// Every event (Join, Leave, Rescore) advances time by one. A Rescore
// refreshes the worker's weight to the present — the observation is
// re-made now. Unlike Window, Decay has no bit-identity replay contract:
// the differential suite compares it against a literal-math oracle within
// a float tolerance.
//
// Decay is not safe for concurrent use.
type Decay struct {
	keys     monitor.GroupKeyer
	halfLife float64
	bins     int
	unit     float64
	growth   float64 // per-event weight multiplier, 2^(1/halfLife)
	weight   float64 // weight the next observation will carry
	events   int64

	groups  map[string]*decayGroup
	order   []*decayGroup // sorted by key: deterministic pair iteration
	workers map[string]decayWorker

	keyBuf []byte
	pmfBuf []float64 // k·bins scratch for Unfairness reads
}

type decayGroup struct {
	key  string
	bins []float64 // decayed weighted mass per score bin
	live int       // live workers contributing mass
}

type decayWorker struct {
	g      *decayGroup
	bin    int
	weight float64
}

// NewDecay creates a half-life estimator over the partitioning induced by
// the named protected attributes. halfLife is in events and must be
// positive; bins defaults to 10 when <= 0.
func NewDecay(schema *dataset.Schema, attrs []string, bins int, halfLife float64) (*Decay, error) {
	keys, err := monitor.NewGroupKeyer(schema, attrs)
	if err != nil {
		return nil, err
	}
	if !(halfLife > 0) || math.IsInf(halfLife, 1) {
		return nil, fmt.Errorf("drift: half-life must be positive and finite, got %v", halfLife)
	}
	if bins <= 0 {
		bins = 10
	}
	return &Decay{
		keys:     keys,
		halfLife: halfLife,
		bins:     bins,
		unit:     1 / float64(bins),
		growth:   math.Exp2(1 / halfLife),
		weight:   1,
		groups:   map[string]*decayGroup{},
		workers:  map[string]decayWorker{},
	}, nil
}

// binIndex clamps like histogram.BinIndex over [0, 1].
func (d *Decay) binIndex(score float64) int {
	if math.IsNaN(score) {
		return 0
	}
	f := math.Floor(score * float64(d.bins))
	if f < 0 {
		return 0
	}
	if f >= float64(d.bins) {
		return d.bins - 1
	}
	return int(f)
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
	for id, st := range d.workers {
		st.weight /= f
		d.workers[id] = st
	}
	d.weight = 1
}

func (d *Decay) insertGroup(key string) *decayGroup {
	g := &decayGroup{key: key, bins: make([]float64, d.bins)}
	d.groups[key] = g
	pos := sort.Search(len(d.order), func(i int) bool { return d.order[i].key >= key })
	d.order = append(d.order, nil)
	copy(d.order[pos+1:], d.order[pos:])
	d.order[pos] = g
	return g
}

func (d *Decay) removeGroup(g *decayGroup) {
	delete(d.groups, g.key)
	pos := sort.Search(len(d.order), func(i int) bool { return d.order[i].key >= g.key })
	d.order = append(d.order[:pos], d.order[pos+1:]...)
}

// Join records a worker arriving with the given protected attributes and
// score, at the present weight.
func (d *Decay) Join(id string, protected map[string]any, score float64) error {
	if _, dup := d.workers[id]; dup {
		return fmt.Errorf("drift: worker %q already present", id)
	}
	buf, err := d.keys.AppendKey(d.keyBuf[:0], protected)
	if err != nil {
		return err
	}
	d.keyBuf = buf
	g := d.groups[string(buf)]
	if g == nil {
		g = d.insertGroup(string(buf))
	}
	bin := d.binIndex(score)
	g.bins[bin] += d.weight
	g.live++
	d.workers[id] = decayWorker{g: g, bin: bin, weight: d.weight}
	d.tick()
	return nil
}

// Leave removes a worker's remaining (decayed) mass. A group with no live
// workers is dropped outright — its residual float dust would otherwise
// keep a departed population in the pairwise average forever.
func (d *Decay) Leave(id string) error {
	st, ok := d.workers[id]
	if !ok {
		return fmt.Errorf("drift: unknown worker %q", id)
	}
	d.subtract(st)
	delete(d.workers, id)
	d.tick()
	return nil
}

// Rescore re-makes the worker's observation at the present weight.
func (d *Decay) Rescore(id string, score float64) error {
	st, ok := d.workers[id]
	if !ok {
		return fmt.Errorf("drift: unknown worker %q", id)
	}
	g := st.g
	d.subtract(st)
	bin := d.binIndex(score)
	if g.live == 0 {
		// The worker was its group's last member; subtract dropped the
		// group, so re-insert it for the refreshed observation.
		g = d.groups[st.g.key]
		if g == nil {
			g = d.insertGroup(st.g.key)
		}
	}
	g.bins[bin] += d.weight
	g.live++
	d.workers[id] = decayWorker{g: g, bin: bin, weight: d.weight}
	d.tick()
	return nil
}

// subtract removes a worker's stored mass, clamping float dust at zero,
// and drops the group when its last live worker goes.
func (d *Decay) subtract(st decayWorker) {
	g := st.g
	g.bins[st.bin] -= st.weight
	if g.bins[st.bin] < 0 {
		g.bins[st.bin] = 0
	}
	g.live--
	if g.live == 0 {
		d.removeGroup(g)
	}
}

// Workers returns the tracked population size.
func (d *Decay) Workers() int { return len(d.workers) }

// Groups returns the number of groups with live workers.
func (d *Decay) Groups() int { return len(d.groups) }

// Events returns how many events have been processed.
func (d *Decay) Events() int64 { return d.events }

// Unfairness returns the average pairwise EMD between the groups'
// decay-weighted score PMFs. O(k²·bins), allocation-free after the first
// read at a given group count.
func (d *Decay) Unfairness() float64 {
	k := len(d.order)
	if k < 2 {
		return 0
	}
	if cap(d.pmfBuf) < k*d.bins {
		d.pmfBuf = make([]float64, k*d.bins)
	}
	pmfs := d.pmfBuf[:k*d.bins]
	for i, g := range d.order {
		dst := pmfs[i*d.bins : (i+1)*d.bins]
		total := 0.0
		for _, c := range g.bins {
			total += c
		}
		if total == 0 {
			u := 1 / float64(d.bins)
			for j := range dst {
				dst[j] = u
			}
			continue
		}
		for j, c := range g.bins {
			dst[j] = c / total
		}
	}
	sum := 0.0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			sum += emd.PMFDistance(pmfs[i*d.bins:(i+1)*d.bins], pmfs[j*d.bins:(j+1)*d.bins], d.unit)
		}
	}
	return sum / float64(k*(k-1)/2)
}
