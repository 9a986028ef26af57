package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fairrank/internal/dataset"
	"fairrank/internal/drift"
	"fairrank/internal/rerank"
	"fairrank/internal/rng"
	"fairrank/internal/simulate"
)

const (
	datasetName = "paper"
	taskID      = "gig"
	monitorID   = "watch"
	pageSize    = 20
	eventBatch  = 256
	// populationSeed fixes the population every workload audits or ranks.
	// At 7300 workers the population alone moves audit cost by a fifth, so
	// --seed varies only the requests: runs with different seeds measure
	// one dataset.
	populationSeed = 42
)

// auditAlgorithms is the fresh-spec cycle of every audit workload.
var auditAlgorithms = []string{"balanced", "all-attributes", "unbalanced"}

// population is the dataset under test: the generator's own read-only
// copy and the snapshot file whose bytes the server receives.
type population struct {
	ds       *dataset.Dataset
	path     string
	size     int64
	checksum string
}

// loadPopulation builds the paper population of n workers from seed, as a
// columnar snapshot file. Files are cached under dir by (n, seed), so the
// 1M-worker population is generated once.
func loadPopulation(dir string, n int, seed uint64) (*population, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("paper-%d-seed%d.snap", n, seed))
	if _, err := os.Stat(path); err != nil {
		ds, err := simulate.PaperWorkers(n, seed)
		if err != nil {
			return nil, err
		}
		tmp := path + ".tmp"
		if err := writeSnapshot(tmp, ds); err != nil {
			return nil, err
		}
		if err := os.Rename(tmp, path); err != nil {
			return nil, err
		}
	}
	sum, err := fileChecksum(path)
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	ds, err := dataset.OpenSnapshot(path)
	if err != nil {
		return nil, fmt.Errorf("open cached population %s: %w", path, err)
	}
	return &population{ds: ds, path: path, size: st.Size(), checksum: sum}, nil
}

func writeSnapshot(path string, ds *dataset.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := ds.WriteSnapshot(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fileChecksum(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// requests holds every request body of a run, generated from the seed
// before the timer starts, and a checksum over all of them.
type requests struct {
	// warmSpecs are sent during set-up, specs while the clock runs.
	warmSpecs []auditSpec
	specs     []auditSpec
	pages     []rankPage
	batches   []eventsBatch
	task      []byte
	monitor   drift.Spec
	checksum  string
}

// auditSpec is one fresh audit: the wire body and its decoded fields.
type auditSpec struct {
	body      []byte
	algorithm string
	weights   map[string]float64
}

// rankPage is one POST /v1/rank body.
type rankPage struct {
	body      []byte
	algorithm string
	q         string
}

// eventsBatch is one POST /v1/monitors/{id}/events body. Only the bytes
// are kept: thousands of decoded batches would dwarf the generator's heap.
type eventsBatch struct {
	body []byte
}

// drawWeights draws a linear scoring function over the paper's two
// observed attributes.
func drawWeights(r *rng.RNG) map[string]float64 {
	return map[string]float64{
		"LanguageTest": r.FloatRange(0.05, 1),
		"ApprovalRate": r.FloatRange(0.05, 1),
	}
}

// auditSpecs generates n distinct fresh specs cycling auditAlgorithms.
func auditSpecs(r *rng.RNG, n int) ([]auditSpec, error) {
	out := make([]auditSpec, n)
	for i := range out {
		s := auditSpec{algorithm: auditAlgorithms[i%len(auditAlgorithms)], weights: drawWeights(r)}
		body, err := json.Marshal(map[string]any{"dataset": datasetName, "algorithm": s.algorithm, "weights": s.weights})
		if err != nil {
			return nil, err
		}
		s.body = body
		out[i] = s
	}
	return out, nil
}

// pageAlgorithms is the serve-7300 page cycle; "" is the plain
// score-ranked page.
var pageAlgorithms = []string{"", "det-greedy", "fair-topk", "exposure-parity", "randomized"}

// pageQueries are the q filters some pages carry. Each keeps a large
// share of the pool, so every re-ranker stays feasible at k = 20.
var pageQueries = []string{
	"YearsExperience >= 5",
	"Country = 'America' OR Country = 'India'",
	"LanguageTest > 40 AND NOT Ethnicity = 'Other'",
}

// rankPages generates n page requests. Every other cycle carries a query.
func rankPages(r *rng.RNG, n int) ([]rankPage, error) {
	out := make([]rankPage, n)
	for i := range out {
		alg := pageAlgorithms[i%len(pageAlgorithms)]
		req := map[string]any{"task": taskID, "k": pageSize}
		p := rankPage{algorithm: alg}
		if (i/len(pageAlgorithms))%2 == 1 {
			p.q = rng.Pick(r, pageQueries)
			req["q"] = p.q
		}
		if alg != "" {
			req["algorithm"] = alg
			params := rerank.Params{}
			switch alg {
			case "det-greedy", "fair-topk", "exposure-parity":
				req["attribute"] = "Gender"
				params.Alpha = rng.Pick(r, []float64{0.05, 0.1})
				params.Epsilon = rng.Pick(r, []float64{0.05, 0.1, 0.2})
			case "randomized":
				params.Seed = r.Uint64()
				params.Spread = rng.Pick(r, []float64{0.05, 0.1})
			}
			req["params"] = params
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		p.body = body
		out[i] = p
	}
	return out, nil
}

// monitorSpec is serve-7300's drift monitor: a window, a half-life and
// the standard three-rule alarm set.
func monitorSpec(weights map[string]float64) drift.Spec {
	const window = 2048
	return drift.Spec{
		ID:         monitorID,
		Dataset:    datasetName,
		Attributes: []string{"Gender", "Country"},
		Weights:    weights,
		Window:     window,
		HalfLife:   window / 2,
		Rules: []drift.RuleSpec{
			{Name: "hard", Type: drift.RuleThreshold, Threshold: 0.5, Hysteresis: 0.2},
			{Name: "slope", Type: drift.RuleDelta, Delta: 0.02, Lookback: window, Hysteresis: 0.2},
			{Name: "drift", Type: drift.RuleBaseline, Source: drift.SourceDecay, Delta: 0.01, Hysteresis: 0.25, Cooldown: window / 4},
		},
	}
}

// eventStream generates join/rescore/leave batches over a live worker set
// that starts as the population's ids. Joins carry a drifting score bias
// against one group, so the alarm rules have something to see.
func eventStream(r *rng.RNG, ds *dataset.Dataset, batches int) ([]eventsBatch, error) {
	live := make([]string, ds.N())
	for i := range live {
		live[i] = ds.ID(i)
	}
	genders := []string{"Male", "Female"}
	countries := []string{"America", "India", "Other"}
	// Every batch has the same mix (40% joins, 30% rescores, 30% leaves)
	// in seeded order, so seeds differ in which workers and scores they
	// touch, not in how much work a batch is.
	kinds := make([]string, eventBatch)
	for i := range kinds {
		switch {
		case i < eventBatch*4/10:
			kinds[i] = drift.EventJoin
		case i < eventBatch*7/10:
			kinds[i] = drift.EventRescore
		default:
			kinds[i] = drift.EventLeave
		}
	}
	out := make([]eventsBatch, batches)
	joined := 0
	for b := range out {
		r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		evs := make([]drift.Event, eventBatch)
		for i := range evs {
			switch kinds[i] {
			case drift.EventJoin:
				id := fmt.Sprintf("n%07d", joined)
				joined++
				g := rng.Pick(r, genders)
				score := r.FloatRange(0, 1)
				if g == "Female" {
					score *= 1 - 0.5*float64(b)/float64(batches)
				}
				evs[i] = drift.Event{Type: drift.EventJoin, Worker: id, Score: score,
					Protected: map[string]any{"Gender": g, "Country": rng.Pick(r, countries)}}
				live = append(live, id)
			case drift.EventRescore:
				evs[i] = drift.Event{Type: drift.EventRescore, Worker: live[r.Intn(len(live))], Score: r.FloatRange(0, 1)}
			default:
				j := r.Intn(len(live))
				evs[i] = drift.Event{Type: drift.EventLeave, Worker: live[j]}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		body, err := json.Marshal(map[string]any{"events": evs})
		if err != nil {
			return nil, err
		}
		out[b] = eventsBatch{body: body}
	}
	return out, nil
}

// sumRequests is the checksum printed with the metrics: two runs with the
// same value sent byte-identical request bodies.
func sumRequests(rq *requests) string {
	h := sha256.New()
	for _, s := range append(rq.warmSpecs, rq.specs...) {
		h.Write(s.body)
	}
	for _, p := range rq.pages {
		h.Write(p.body)
	}
	for _, b := range rq.batches {
		h.Write(b.body)
	}
	h.Write(rq.task)
	mon, _ := json.Marshal(rq.monitor) // a drift.Spec of finite values always encodes
	h.Write(mon)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// describeInputs is the info line naming what a run sent.
func describeInputs(pop *population, rq *requests) string {
	return fmt.Sprintf("inputs: workers=%d snapshot=%s requests=%s specs=%d pages=%d batches=%d",
		pop.ds.N(), pop.checksum, rq.checksum, len(rq.specs), len(rq.pages), len(rq.batches))
}
