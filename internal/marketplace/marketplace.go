// Package marketplace simulates the online job marketplace the paper
// studies: a platform holding a worker population and tasks, where "a
// person who needs to hire someone for a job can formulate a query and is
// shown a ranked list of people". It provides the ranking engine whose
// scoring functions fairrank audits, plus exposure metrics (in the spirit
// of Singh & Joachims' fairness-of-exposure, cited by the paper) and a
// hiring simulation that turns ranking disparity into outcome disparity.
package marketplace

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"fairrank/internal/dataset"
	"fairrank/internal/query"
	"fairrank/internal/rng"
	"fairrank/internal/scoring"
)

// Task is a job posted on the platform. Its weights over observed worker
// attributes define the task-qualification scoring function used to rank
// candidates (Definition 1 of the paper).
type Task struct {
	// ID uniquely identifies the task on the platform.
	ID string
	// Title is a human-readable description, e.g. "help with HTML/CSS".
	Title string
	// Weights maps observed attribute names to their importance for the
	// task. A weight of zero means the attribute is irrelevant.
	Weights map[string]float64
}

// Marketplace is a simulated platform: a worker population plus tasks.
type Marketplace struct {
	workers *dataset.Dataset
	tasks   map[string]Task
	order   []string // task IDs in insertion order
}

// New creates a marketplace over the given worker population.
func New(workers *dataset.Dataset) (*Marketplace, error) {
	if workers == nil || workers.N() == 0 {
		return nil, errors.New("marketplace: empty worker population")
	}
	return &Marketplace{workers: workers, tasks: map[string]Task{}}, nil
}

// Workers returns the worker population.
func (m *Marketplace) Workers() *dataset.Dataset { return m.workers }

// Tasks returns the posted tasks in insertion order.
func (m *Marketplace) Tasks() []Task {
	out := make([]Task, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.tasks[id])
	}
	return out
}

// PostTask validates and registers a task.
func (m *Marketplace) PostTask(t Task) error {
	if t.ID == "" {
		return errors.New("marketplace: task with empty ID")
	}
	if _, dup := m.tasks[t.ID]; dup {
		return fmt.Errorf("marketplace: duplicate task %q", t.ID)
	}
	f, err := scoring.NewLinear(t.ID, t.Weights)
	if err != nil {
		return fmt.Errorf("marketplace: task %q: %w", t.ID, err)
	}
	if err := f.Validate(m.workers.Schema()); err != nil {
		return fmt.Errorf("marketplace: task %q: %w", t.ID, err)
	}
	m.tasks[t.ID] = t
	m.order = append(m.order, t.ID)
	return nil
}

// ScoringFunc returns the task's qualification function — the object the
// fairness audit runs on.
func (m *Marketplace) ScoringFunc(taskID string) (scoring.Func, error) {
	t, ok := m.tasks[taskID]
	if !ok {
		return nil, fmt.Errorf("marketplace: unknown task %q", taskID)
	}
	return scoring.NewLinear(t.ID, t.Weights)
}

// RankedWorker is one entry of a ranking.
type RankedWorker struct {
	// Worker is the row index into the population dataset.
	Worker int
	// Score is the task-qualification score.
	Score float64
	// Rank is the 1-based position in the ranking.
	Rank int
}

// Rank scores every worker for the task and returns the top k (all workers
// when k <= 0), ordered by descending score with worker index as the
// deterministic tiebreak.
func (m *Marketplace) Rank(taskID string, k int) ([]RankedWorker, error) {
	f, err := m.ScoringFunc(taskID)
	if err != nil {
		return nil, err
	}
	return RankBy(m.workers, f, k), nil
}

// RankQuery scores only the workers matching the requester's query
// expression (e.g. "YearsExperience >= 5 AND Country = 'America'") and
// returns the top k of them — the paper's full interaction: "a person who
// needs to hire someone for a job can formulate a query and is shown a
// ranked list of people". Ranks are positions within the filtered result
// page; Worker indices refer to the full population dataset.
func (m *Marketplace) RankQuery(taskID, queryText string, k int) ([]RankedWorker, error) {
	pool, err := m.queryPool(taskID, queryText)
	if err != nil {
		return nil, err
	}
	return page(pool, k), nil
}

// Pool scores the task's candidates — every worker when queryText is
// empty, else the workers matching it, as RankQuery filters them — and
// returns them unsorted and unnumbered (Rank 0), in worker order. It is
// the input of a page that is selected (TopPage) or re-ranked rather
// than sorted whole.
func (m *Marketplace) Pool(taskID, queryText string) ([]RankedWorker, error) {
	if queryText != "" {
		return m.queryPool(taskID, queryText)
	}
	f, err := m.ScoringFunc(taskID)
	if err != nil {
		return nil, err
	}
	return scored(scoring.Scores(m.workers, f)), nil
}

// queryPool is Pool for a query, which must parse and match some worker.
func (m *Marketplace) queryPool(taskID, queryText string) ([]RankedWorker, error) {
	f, err := m.ScoringFunc(taskID)
	if err != nil {
		return nil, err
	}
	expr, err := query.Parse(queryText)
	if err != nil {
		return nil, err
	}
	q, err := query.Compile(expr, m.workers.Schema())
	if err != nil {
		return nil, err
	}
	matched := q.Filter(m.workers)
	if len(matched) == 0 {
		return nil, fmt.Errorf("marketplace: no workers match %s", q)
	}
	scores := scoring.Scores(m.workers, f)
	pool := make([]RankedWorker, len(matched))
	for j, i := range matched {
		pool[j] = RankedWorker{Worker: i, Score: scores[i]}
	}
	return pool, nil
}

// RankBy ranks the workers of any dataset under any scoring function; it is
// the core of the platform's result page.
func RankBy(ds *dataset.Dataset, f scoring.Func, k int) []RankedWorker {
	return page(scored(scoring.Scores(ds, f)), k)
}

// scored pairs every worker with its score.
func scored(scores []float64) []RankedWorker {
	pool := make([]RankedWorker, len(scores))
	for i, s := range scores {
		pool[i] = RankedWorker{Worker: i, Score: s}
	}
	return pool
}

// ByScore orders candidates as a page does: by descending score, then
// ascending worker index. For non-NaN scores it is a total order on
// distinct workers, so every sort or selection under it agrees with a
// stable sort.
func ByScore(a, b RankedWorker) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	}
	return a.Worker - b.Worker
}

// TopPage returns the best min(k, len(pool)) candidates of pool under
// ByScore as a page numbered from 1, in O(len(pool)·log k) and without
// reordering pool.
func TopPage(pool []RankedWorker, k int) []RankedWorker {
	return numbered(TopK(pool, k, ByScore))
}

// page orders scored candidates under ByScore, keeps the top k (all when
// k <= 0) and numbers them from 1. A proper page is selected from ranked;
// the whole pool is sorted in place.
func page(ranked []RankedWorker, k int) []RankedWorker {
	if k > 0 && k < len(ranked) {
		return TopPage(ranked, k)
	}
	slices.SortFunc(ranked, ByScore)
	return numbered(ranked)
}

// numbered sets each candidate's Rank to its 1-based position.
func numbered(ranked []RankedWorker) []RankedWorker {
	for i := range ranked {
		ranked[i].Rank = i + 1
	}
	return ranked
}

// PositionBias returns the standard logarithmic position-bias weight of a
// 1-based rank: 1 / log2(rank + 1). Rank 1 gets weight 1.
func PositionBias(rank int) float64 {
	if rank < 1 {
		return 0
	}
	return 1 / math.Log2(float64(rank)+1)
}

// GroupExposure computes, per value of protected attribute attr, the mean
// position-bias exposure the ranking gives that group's members who appear
// in it; members outside the ranking contribute zero exposure. Groups with
// no members in the dataset are omitted.
func GroupExposure(ds *dataset.Dataset, attr int, ranked []RankedWorker) (map[string]float64, error) {
	if attr < 0 || attr >= len(ds.Schema().Protected) {
		return nil, fmt.Errorf("marketplace: protected attribute %d out of range", attr)
	}
	def := ds.Schema().Protected[attr]
	sums := make([]float64, def.Cardinality())
	counts := make([]float64, def.Cardinality())
	for i := 0; i < ds.N(); i++ {
		counts[ds.Code(attr, i)]++
	}
	for _, rw := range ranked {
		sums[ds.Code(attr, rw.Worker)] += PositionBias(rw.Rank)
	}
	out := map[string]float64{}
	for v := range sums {
		if counts[v] == 0 {
			continue
		}
		out[def.ValueLabel(v)] = sums[v] / counts[v]
	}
	return out, nil
}

// ExposureDisparity summarizes a group-exposure map as the ratio between
// the most and least exposed groups (1 means perfectly equal exposure).
// It returns +Inf when some group has zero exposure and another does not,
// and 1 when the map has fewer than two groups.
func ExposureDisparity(exposure map[string]float64) float64 {
	if len(exposure) < 2 {
		return 1
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, e := range exposure {
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	if max == 0 {
		return 1
	}
	if min == 0 {
		return math.Inf(1)
	}
	return max / min
}

// HiringStats summarizes a hiring simulation.
type HiringStats struct {
	// Rounds is the number of hiring decisions simulated.
	Rounds int
	// HiresByGroup counts hires per value of the audited attribute.
	HiresByGroup map[string]int
}

// SimulateHiring simulates `rounds` independent employers issuing the task
// query, examining the top-k ranking, and hiring one candidate with
// probability proportional to position bias — the standard click-model
// assumption. It reports hires per group of protected attribute attr.
func (m *Marketplace) SimulateHiring(taskID string, attr, k, rounds int, r *rng.RNG) (HiringStats, error) {
	stats := HiringStats{HiresByGroup: map[string]int{}}
	if rounds <= 0 {
		return stats, errors.New("marketplace: rounds must be positive")
	}
	if attr < 0 || attr >= len(m.workers.Schema().Protected) {
		return stats, fmt.Errorf("marketplace: protected attribute %d out of range", attr)
	}
	ranked, err := m.Rank(taskID, k)
	if err != nil {
		return stats, err
	}
	if len(ranked) == 0 {
		return stats, errors.New("marketplace: empty ranking")
	}
	weights := make([]float64, len(ranked))
	total := 0.0
	for i, rw := range ranked {
		weights[i] = PositionBias(rw.Rank)
		total += weights[i]
	}
	def := m.workers.Schema().Protected[attr]
	for round := 0; round < rounds; round++ {
		x := r.Float64() * total
		pick := len(ranked) - 1
		for i, w := range weights {
			x -= w
			if x < 0 {
				pick = i
				break
			}
		}
		worker := ranked[pick].Worker
		stats.HiresByGroup[def.ValueLabel(m.workers.Code(attr, worker))]++
	}
	stats.Rounds = rounds
	return stats, nil
}
