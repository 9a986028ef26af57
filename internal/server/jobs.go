// Audit jobs: the HTTP surface over internal/jobs and the one way to run
// an audit — submit, poll, follow as SSE, cancel — with dedup, admission
// control shedding load instead of monopolizing connections, and cluster
// placement.
package server

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"

	"fairrank/internal/cluster"
	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/emd"
	"fairrank/internal/jobs"
	"fairrank/internal/scoring"
)

const (
	// defaultJobPage and maxJobPage bound GET /v1/jobs pages: a
	// long-running server accumulates unbounded job history in the store,
	// and serializing it all in one response would balloon without limit.
	defaultJobPage = 50
	maxJobPage     = 500
)

// jobResult is the stored output of an audit job. It deliberately
// carries no wall-clock fields (the job's started_at/finished_at hold
// those): crash recovery re-runs interrupted jobs and promises a
// bit-identical result, so everything here must be a pure function of
// the spec.
type jobResult struct {
	Dataset    string           `json:"dataset,omitempty"`
	Algorithm  string           `json:"algorithm"`
	Unfairness float64          `json:"unfairness"`
	Partitions []auditPartition `json:"partitions"`
	// PValue is the permutation-test p-value, present when the spec set
	// significance_rounds.
	PValue *float64 `json:"p_value,omitempty"`
}

type auditPartition struct {
	Label string `json:"label"`
	Size  int    `json:"size"`
}

// jobPage is the paginated GET /v1/jobs response.
type jobPage struct {
	Jobs   []jobs.Job `json:"jobs"`
	Total  int        `json:"total"`
	Offset int        `json:"offset"`
	Limit  int        `json:"limit"`
}

// jobDataset returns the content a job audits: the mapping its pinned
// digest names, whatever the name holds by now, or — for a spec without
// a digest (decodeJob's own input, or a job recorded before jobs pinned
// content) — what the name holds now.
func (s *Server) jobDataset(sp jobs.Spec) (*dataset.Dataset, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if sp.Digest != "" {
		ds, ok := s.contents[sp.Digest]
		if !ok {
			return nil, fmt.Errorf("dataset %q: pinned content %s is no longer stored", sp.Dataset, sp.Digest)
		}
		return ds, nil
	}
	ds, ok := s.datasets[sp.Dataset]
	if !ok {
		return nil, fmt.Errorf("dataset %q not found", sp.Dataset)
	}
	return ds, nil
}

// resolveJobSpec turns a wire spec into the core.Spec it will execute,
// on the content jobDataset names, validating the spec's references
// against that content's schema. It is called at submit time (for
// validation and the canonical hash) and again at execution time, on the
// same content.
func (s *Server) resolveJobSpec(sp jobs.Spec) (core.Spec, error) {
	if _, err := core.Lookup(cmp.Or(sp.Algorithm, "balanced")); err != nil {
		return core.Spec{}, err
	}
	ds, err := s.jobDataset(sp)
	if err != nil {
		return core.Spec{}, err
	}
	f, err := scoring.NewLinear("job-fn", sp.Weights)
	if err != nil {
		return core.Spec{}, err
	}
	if err := f.Validate(ds.Schema()); err != nil {
		return core.Spec{}, err
	}
	cfg := core.Config{Bins: sp.Bins, Metrics: s.metrics}
	if sp.Metric != "" {
		m, err := emd.ParseMetric(sp.Metric)
		if err != nil {
			return core.Spec{}, err
		}
		cfg.Metric = m
	}
	var attrs []int
	if sp.Attributes != nil {
		for _, name := range sp.Attributes {
			i := ds.Schema().ProtectedIndex(name)
			if i < 0 {
				return core.Spec{}, fmt.Errorf("%q is not a protected attribute", name)
			}
			attrs = append(attrs, i)
		}
	}
	return core.Spec{
		Algorithm: sp.Algorithm,
		Dataset:   ds,
		Func:      f,
		Config:    cfg,
		Attrs:     attrs,
		Seed:      sp.Seed,
		Budget:    sp.Budget,
	}, nil
}

// decodeJob parses a wire spec, resolves it against live server state —
// so a bad submission fails fast as a 4xx instead of becoming a failed
// job — pins the content its dataset name holds now (Spec.Digest), and
// derives its dedup key: the canonical core.Spec hash, which binds that
// same content (so every node a spec lands on recomputes it), with the
// significance rounds folded in when the spec asks for a p-value. Without
// rounds the key is the plain hash, so persisted result-cache keys stay
// valid. The content's digest was computed when the dataset was
// registered, so no step here is O(N).
func (s *Server) decodeJob(raw []byte) (jobs.Spec, string, error) {
	sp, err := jobs.DecodeSpec(raw)
	if err != nil {
		return jobs.Spec{}, "", err
	}
	cspec, err := s.resolveJobSpec(sp)
	if err != nil {
		return jobs.Spec{}, "", err
	}
	hash := cspec.Hash()
	sp.Digest = digestOf(cspec.Dataset)
	if sp.SignificanceRounds > 0 {
		sum := sha256.Sum256(fmt.Appendf(nil, "%s significance_rounds=%d", hash, sp.SignificanceRounds))
		hash = hex.EncodeToString(sum[:])
	}
	return sp, hash, nil
}

// execJob is the queue's executor: resolve the spec on its pinned
// content, drive the engine (and the permutation test, when asked) under
// the job's context, and serialize the deterministic result.
func (s *Server) execJob(ctx context.Context, j jobs.Job, progress func(core.TraceStep)) ([]byte, error) {
	spec, err := s.resolveJobSpec(j.Spec)
	if err != nil {
		return nil, err
	}
	// One evaluator serves both the search and the permutation test.
	e, err := core.NewEvaluator(spec.Dataset, spec.Func, spec.Config)
	if err != nil {
		return nil, err
	}
	spec.Evaluator = e
	spec.Progress = progress
	res, err := core.Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	out := jobResult{
		Dataset:    j.Spec.Dataset,
		Algorithm:  res.Algorithm,
		Unfairness: res.Unfairness,
		Partitions: []auditPartition{},
	}
	schema := spec.Dataset.Schema()
	for _, p := range res.Partitioning.Parts {
		out.Partitions = append(out.Partitions, auditPartition{Label: p.Label(schema), Size: p.Size()})
	}
	sort.Slice(out.Partitions, func(i, k int) bool {
		return out.Partitions[i].Label < out.Partitions[k].Label
	})
	if n := j.Spec.SignificanceRounds; n > 0 {
		p, _, err := core.Significance(e, res.Partitioning, n, j.Spec.Seed)
		if err != nil {
			return nil, err
		}
		out.PValue = &p
	}
	return json.Marshal(out)
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxSpecBody)
	if !ok {
		return
	}
	spec, hash, err := s.decodeJob(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Clustered placement: the canonical hash's ring owner runs the job,
	// so identical specs submitted anywhere in the cluster dedup onto one
	// run. A stamped submission is never re-forwarded (loop guard), and
	// any placement failure falls through to local execution.
	if c := s.clusterRef(); c != nil && r.Header.Get(cluster.HeaderForwarded) == "" {
		if fw := c.PlaceJob(hash, spec.Dataset, body); fw != nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(fw.Status)
			_, _ = w.Write(fw.Body)
			return
		}
	}
	job, created, err := s.jobs.Submit(spec, hash)
	var full *jobs.FullError
	switch {
	case errors.As(err, &full):
		w.Header().Set("Retry-After", strconv.Itoa(int(full.RetryAfter.Seconds())))
		writeErr(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, jobs.ErrShuttingDown):
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	status := http.StatusAccepted
	if !created {
		// Coalesced onto an existing job (active dedup or result cache).
		status = http.StatusOK
	}
	writeJSON(w, status, job)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c := s.clusterRef()
	if job, ok := s.jobs.Get(id); ok {
		if c != nil {
			writeJSON(w, http.StatusOK, clusterJob{Job: job, Node: c.NodeID()})
			return
		}
		writeJSON(w, http.StatusOK, job)
		return
	}
	// Local miss: scatter to live peers unless this request is itself a
	// peer's fan-out (loop guard).
	if c == nil || r.Header.Get(cluster.HeaderScatter) != "" {
		writeErr(w, http.StatusNotFound, fmt.Errorf("job %q not found", id))
		return
	}
	s.scatterGetJob(w, c, id)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	limit := defaultJobPage
	if v := qp.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = min(n, maxJobPage)
	}
	offset := 0
	if v := qp.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad offset %q", v))
			return
		}
		offset = n
	}
	state := jobs.State(qp.Get("state"))
	switch state {
	case "", jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCanceled, jobs.StateStolen:
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad state %q", state))
		return
	}
	// Clustered reads fan out to live peers and merge; a peer's own
	// fan-out request (scatter header) is answered from local state only.
	if c := s.clusterRef(); c != nil && r.Header.Get(cluster.HeaderScatter) == "" {
		s.scatterListJobs(w, c, state, offset, limit)
		return
	}
	page, total := s.jobs.List(state, offset, limit)
	writeJSON(w, http.StatusOK, jobPage{Jobs: page, Total: total, Offset: offset, Limit: limit})
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, err := s.jobs.Cancel(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeErr(w, http.StatusNotFound, fmt.Errorf("job %q not found", id))
	case errors.Is(err, jobs.ErrTerminal):
		writeErr(w, http.StatusConflict, fmt.Errorf("job %q already %s", id, job.State))
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, job)
	}
}

// handleJobEvents streams a job's lifecycle and engine progress as
// server-sent events: replayed history first, then live events until the
// job reaches a terminal state or the client disconnects.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	replay, live, cancel, err := s.jobs.Subscribe(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("job %q not found", id))
		return
	}
	defer cancel()
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	writeEvent := func(ev jobs.Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
			return false
		}
		return rc.Flush() == nil
	}
	for _, ev := range replay {
		if !writeEvent(ev) {
			return
		}
	}
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return // terminal state reached; stream complete
			}
			if !writeEvent(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
