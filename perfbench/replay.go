package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/drift"
	"fairrank/internal/jobs"
	"fairrank/internal/marketplace"
	"fairrank/internal/query"
	"fairrank/internal/rerank"
	"fairrank/internal/rng"
	"fairrank/internal/scoring"
)

// ndcgRows caps the relevance vector of the sweep's NDCG call at the
// paper population's size.
const ndcgRows = 7300

// sink keeps results the compiler must not drop.
var sink any

// replayAudit calls a fresh audit's layers in-process on the same spec.
func (b *bench) replayAudit(i int, spec auditSpec, start, end time.Time) {
	tr := b.tr
	root := tr.openAt("op.audit", 0, i, start)
	tr.record("http.audit", root, i, start, end)
	var decoded jobs.Spec
	var err error
	tr.do("server.decode", root, i, func() { decoded, err = jobs.DecodeSpec(spec.body) })
	if err != nil {
		b.checkFailed("spec %d does not decode in-process: %v", i, err)
		return
	}
	cs, err := coreSpec(b.pop.ds, decoded.Algorithm, decoded.Weights)
	if err != nil {
		b.checkFailed("spec %d: %v", i, err)
		return
	}
	tr.do("scoring.score", root, i, func() { sink = cs.Func.(*scoring.Linear).ScoreColumn(b.pop.ds) })
	tr.do("core.hash", root, i, func() { sink = cs.Hash() })
	var res *core.Result
	tr.do("core.run."+decoded.Algorithm, root, i, func() { res, err = core.Run(context.Background(), cs) })
	tr.close(root)
	if err != nil {
		b.checkFailed("spec %d: in-process run: %v", i, err)
		return
	}
	b.audit.refs = append(b.audit.refs, refRun{spec: i, res: res, stats: res.Stats})
}

// replayResubmit calls a resubmit's layers in-process: decode and hash.
func (b *bench) replayResubmit(i int, spec auditSpec, start, end time.Time) {
	tr := b.tr
	root := tr.openAt("op.resubmit", 0, i, start)
	tr.record("http.resubmit", root, i, start, end)
	var decoded jobs.Spec
	var err error
	tr.do("server.decode", root, i, func() { decoded, err = jobs.DecodeSpec(spec.body) })
	if err == nil {
		var cs core.Spec
		if cs, err = coreSpec(b.pop.ds, decoded.Algorithm, decoded.Weights); err == nil {
			tr.do("core.hash", root, i, func() { sink = cs.Hash() })
		}
	}
	tr.close(root)
	if err != nil {
		b.checkFailed("resubmit %d in-process: %v", i, err)
	}
}

// sweepAudit times, once per traced run, the layers an audit workload
// does not call on its request path, on this workload's population:
// snapshot open, page ranking, NDCG, query filters, re-rankers and a drift
// watch. They predict nothing about this workload's end-to-end numbers.
func (b *bench) sweepAudit() error {
	if err := b.openSnapshotSpan(); err != nil {
		return err
	}
	weights := b.rq.specs[0].weights
	ds := b.pop.ds
	tr := b.all
	root := tr.open("sweep.serving", 0, -1)
	defer tr.close(root)
	m, err := market(ds, weights)
	if err != nil {
		return err
	}
	var pool []marketplace.RankedWorker
	tr.do("marketplace.rank", root, -1, func() { pool, err = m.Rank(taskID, 0) })
	if err != nil {
		return err
	}
	b.serve.pool = append(b.serve.pool, len(pool))
	for _, q := range pageQueries {
		if err := b.filter(root, -1, q); err != nil {
			return err
		}
	}
	gender := ds.Schema().ProtectedIndex("Gender")
	var page []marketplace.RankedWorker
	for _, alg := range pageAlgorithms[1:] {
		p := rerank.Params{Alpha: 0.1, Epsilon: 0.1, Seed: 1, Spread: 0.1}
		tr.do("rerank.serve."+alg, root, -1, func() { page, err = rerank.Serve(nil, alg, ds, gender, pool, pageSize, p) })
		if err != nil {
			return fmt.Errorf("%s: %w", alg, err)
		}
	}
	// NDCG sorts its relevance vector by insertion, quadratic in its
	// length, so the sweep scores a page over the first ndcgRows workers.
	relevance := make([]float64, min(ds.N(), ndcgRows))
	for j := range page {
		page[j].Worker %= len(relevance)
	}
	for _, rw := range pool {
		if rw.Worker < len(relevance) {
			relevance[rw.Worker] = rw.Score
		}
	}
	tr.do("marketplace.ndcg", root, -1, func() { sink, err = marketplace.NDCG(relevance, page) })
	if err != nil {
		return err
	}
	spec := monitorSpec(weights)
	var w *drift.Watch
	tr.do("drift.seed", root, -1, func() { w, err = seededWatch(ds, spec) })
	if err != nil {
		return err
	}
	batches, err := eventStream(rng.New(b.cfg.seed), ds, 2)
	if err != nil {
		return err
	}
	for _, batch := range batches {
		evs, err := drift.DecodeEvents(batch.body)
		if err != nil {
			return err
		}
		tr.do("drift.apply", root, -1, func() { _, err = applyAll(w, evs) })
		if err != nil {
			return err
		}
	}
	return nil
}

// filter times query.Parse, Compile and Filter for q.
func (b *bench) filter(parent, op int, q string) error {
	var err error
	b.tr0().do("query.filter", parent, op, func() {
		var e query.Expr
		if e, err = query.Parse(q); err != nil {
			return
		}
		var c *query.Compiled
		if c, err = query.Compile(e, b.pop.ds.Schema()); err != nil {
			return
		}
		sink = c.Filter(b.pop.ds)
	})
	return err
}

// tr0 is the tracer for the current call: the cycle's, else the run's.
func (b *bench) tr0() *tracer {
	if b.tr != nil {
		return b.tr
	}
	return b.all
}

// rankRequest mirrors the POST /v1/rank body.
type rankRequest struct {
	Task      string        `json:"task"`
	Q         string        `json:"q"`
	K         int           `json:"k"`
	Algorithm string        `json:"algorithm"`
	Attribute string        `json:"attribute"`
	Params    rerank.Params `json:"params"`
}

// replayRank calls a page's layers in-process on the same request.
func (b *bench) replayRank(i int, page rankPage, start, end time.Time) {
	tr := b.tr
	ds := b.pop.ds
	root := tr.openAt("op.rank", 0, i, start)
	defer tr.close(root)
	tr.record("http.rank", root, i, start, end)
	var req rankRequest
	var err error
	tr.do("server.decode", root, i, func() { err = json.Unmarshal(page.body, &req) })
	if err != nil {
		b.checkFailed("page %d does not decode in-process: %v", i, err)
		return
	}
	m, err := market(ds, b.rq.monitor.Weights)
	if err != nil {
		b.checkFailed("page %d: %v", i, err)
		return
	}
	f, _ := m.ScoringFunc(taskID)
	tr.do("scoring.score", root, i, func() { sink = f.(*scoring.Linear).ScoreColumn(ds) })
	var pool []marketplace.RankedWorker
	tr.do("marketplace.rank", root, i, func() {
		if req.Q != "" {
			pool, err = m.RankQuery(taskID, req.Q, 0)
		} else {
			pool, err = m.Rank(taskID, 0)
		}
	})
	if err != nil {
		b.checkFailed("page %d: in-process rank: %v", i, err)
		return
	}
	b.serve.pool = append(b.serve.pool, len(pool))
	if req.Q != "" {
		if err := b.filter(root, i, req.Q); err != nil {
			b.checkFailed("page %d: %v", i, err)
			return
		}
	}
	if req.Algorithm != "" {
		attr := -1
		if req.Attribute != "" {
			attr = ds.Schema().ProtectedIndex(req.Attribute)
		}
		var page []marketplace.RankedWorker
		tr.do("rerank.serve."+req.Algorithm, root, i, func() {
			page, err = rerank.Serve(nil, req.Algorithm, ds, attr, pool, req.K, req.Params)
		})
		if err != nil {
			b.checkFailed("page %d: in-process %s: %v", i, req.Algorithm, err)
			return
		}
		// A re-ranked page also reports its NDCG against the pool.
		relevance := make([]float64, ds.N())
		for _, rw := range pool {
			relevance[rw.Worker] = rw.Score
		}
		tr.do("marketplace.ndcg", root, i, func() { sink, err = marketplace.NDCG(relevance, page) })
		if err != nil {
			b.checkFailed("page %d: in-process NDCG: %v", i, err)
		}
	}
}

// catchUp applies event batches [applied, n) to the reference watch
// outside any span, so the traced apply sees the server's state.
func (b *bench) catchUp(n int) error {
	s := &b.serve
	if s.watch == nil {
		var err error
		b.tr0().do("drift.seed", 0, -1, func() { s.watch, err = seededWatch(b.pop.ds, b.rq.monitor) })
		if err != nil {
			return err
		}
	}
	for ; s.applied < n; s.applied++ {
		evs, err := drift.DecodeEvents(b.rq.batches[s.applied].body)
		if err != nil {
			return err
		}
		a, err := applyAll(s.watch, evs)
		if err != nil {
			return err
		}
		s.refAlarms += a
	}
	return nil
}

// replayEvents calls an event batch's layers in-process.
func (b *bench) replayEvents(i int, batch eventsBatch, start, end time.Time) {
	tr := b.tr
	s := &b.serve
	idx := serveWarmBatches + i
	if err := b.catchUp(idx); err != nil {
		b.checkFailed("batch %d: reference watch: %v", idx, err)
		return
	}
	root := tr.openAt("op.events", 0, i, start)
	defer tr.close(root)
	tr.record("http.events", root, i, start, end)
	var evs []drift.Event
	var err error
	tr.do("server.decode", root, i, func() { evs, err = drift.DecodeEvents(batch.body) })
	if err != nil {
		b.checkFailed("batch %d does not decode in-process: %v", idx, err)
		return
	}
	var a int
	tr.do("drift.apply", root, i, func() { a, err = applyAll(s.watch, evs) })
	if err != nil {
		b.checkFailed("batch %d: in-process apply: %v", idx, err)
		return
	}
	s.applied = idx + 1
	s.refAlarms += a
}

// sweepServe times, once per traced run, the audit layers serve-7300
// does not call (spec hash and every engine algorithm) on its population
// with the task's weights.
func (b *bench) sweepServe() error {
	if err := b.openSnapshotSpan(); err != nil {
		return err
	}
	tr := b.all
	root := tr.open("sweep.audit", 0, -1)
	defer tr.close(root)
	for _, alg := range auditAlgorithms {
		cs, err := coreSpec(b.pop.ds, alg, b.rq.monitor.Weights)
		if err != nil {
			return err
		}
		tr.do("core.hash", root, -1, func() { sink = cs.Hash() })
		tr.do("scoring.score", root, -1, func() { sink = cs.Func.(*scoring.Linear).ScoreColumn(b.pop.ds) })
		var res *core.Result
		tr.do("core.run."+alg, root, -1, func() { res, err = core.Run(context.Background(), cs) })
		if err != nil {
			return err
		}
		b.audit.refs = append(b.audit.refs, refRun{spec: -1, res: res, stats: res.Stats})
	}
	return nil
}

// openSnapshotSpan times dataset.OpenSnapshot of the uploaded file.
func (b *bench) openSnapshotSpan() error {
	var err error
	for i := 0; i < 3; i++ {
		b.all.do("dataset.open", 0, -1, func() {
			var ds *dataset.Dataset
			if ds, err = dataset.OpenSnapshot(b.pop.path); err == nil {
				ds.Close()
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}
