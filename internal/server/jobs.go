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
	"math"
	"net/http"
	"strconv"

	"fairrank/internal/cluster"
	"fairrank/internal/core"
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

// jobEntry is one job on a GET /v1/jobs page: the job, a done job's
// result summary in place of its result, and on a clustered page the
// node the job lives on. Job IDs are per-node sequences ("job-000001"
// exists on every node), so (ID, Node) is the cluster-wide identity.
type jobEntry struct {
	jobs.Job
	Summary *resultSummary `json:"summary,omitempty"`
	Node    string         `json:"node,omitempty"`
}

// jobPage is the paginated GET /v1/jobs response. Partial marks a
// clustered page assembled while at least one peer was unreachable.
type jobPage struct {
	Jobs    []jobEntry `json:"jobs"`
	Total   int        `json:"total"`
	Offset  int        `json:"offset"`
	Limit   int        `json:"limit"`
	Partial bool       `json:"partial,omitempty"`
}

// listJobs is one page of this node's jobs, each done job summarized.
func (s *Server) listJobs(state jobs.State, offset, limit int) ([]jobEntry, int) {
	page, total := s.jobs.List(state, offset, limit)
	out := make([]jobEntry, len(page))
	for i, j := range page {
		out[i].Job = j
		if len(j.Result) > 0 {
			if sum, _, err := readHeader(j.Result); err == nil {
				out[i].Summary = &sum
			}
		}
	}
	return out, total
}

// writeJob writes the body GET /v1/jobs/{id} answers with: the job's
// fields, then its result, rendered from the stored bytes straight into
// the body, then the node it lives on when node is set.
func writeJob(w http.ResponseWriter, status int, j jobs.Job, node string) {
	body, err := json.Marshal(j)
	if err == nil && len(j.Result) > 0 {
		body = append(body[:len(body)-1], `,"result":`...)
		body, err = appendResultJSON(body, j.Result)
		body = append(body, '}')
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if node != "" {
		body = append(body[:len(body)-1], `,"node":"`...)
		body = append(body, jsonString(node)...)
		body = append(body, `"}`...)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

// resolveJobSpec turns a wire spec into the core.Spec it will execute,
// on the content its pinned digest names, whatever the dataset name
// holds by now, validating the spec's references against that content's
// schema. It is called at submit time (for validation and the canonical
// hash) and again at execution time, on the same content.
func (s *Server) resolveJobSpec(sp jobs.Spec) (core.Spec, error) {
	if _, err := core.Lookup(cmp.Or(sp.Algorithm, "balanced")); err != nil {
		return core.Spec{}, err
	}
	s.mu.RLock()
	ds, ok := s.contents[sp.Digest]
	s.mu.RUnlock()
	if !ok {
		return core.Spec{}, fmt.Errorf("dataset %q: pinned content %s is no longer stored", sp.Dataset, sp.Digest)
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

// decodeJob parses a wire spec, pins the content its dataset name holds
// now (Spec.Digest), resolves it against live server state — so a bad
// submission fails fast as a 4xx instead of becoming a failed job — and
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
	s.mu.RLock()
	ds, ok := s.datasets[sp.Dataset]
	s.mu.RUnlock()
	if !ok {
		return jobs.Spec{}, "", fmt.Errorf("dataset %q not found", sp.Dataset)
	}
	sp.Digest = digestOf(ds)
	cspec, err := s.resolveJobSpec(sp)
	if err != nil {
		return jobs.Spec{}, "", err
	}
	hash := cspec.Hash()
	if sp.SignificanceRounds > 0 {
		sum := sha256.Sum256(fmt.Appendf(nil, "%s significance_rounds=%d", hash, sp.SignificanceRounds))
		hash = hex.EncodeToString(sum[:])
	}
	return sp, hash, nil
}

// execJob is the queue's executor: resolve the spec on its pinned
// content, drive the engine (and the permutation test, when asked) under
// the job's context, and encode the deterministic result as a record.
// The record carries no wall-clock fields (the job's started_at and
// finished_at hold those): crash recovery re-runs interrupted jobs and
// promises a bit-identical result, so it is a pure function of the spec.
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
	var pValue *float64
	if n := j.Spec.SignificanceRounds; n > 0 {
		p, _, err := core.Significance(ctx, e, res.Partitioning, n, j.Spec.Seed)
		if err != nil {
			return nil, err
		}
		pValue = &p
	}
	return encodeResult(j.Spec.Dataset, res, spec.Dataset.Schema(), pValue)
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
	writeJob(w, status, job, "")
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c := s.clusterRef()
	if job, ok := s.jobs.Get(id); ok {
		node := ""
		if c != nil {
			node = c.NodeID()
		}
		writeJob(w, http.StatusOK, job, node)
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
	page, total := s.listJobs(state, offset, limit)
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
	sub, err := s.jobs.Subscribe(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("job %q not found", id))
		return
	}
	defer sub.Close()
	serveSSE(w, r, sub, func(ev jobs.Event) (int64, string) {
		return int64(ev.Seq), string(ev.Type)
	}, appendJobEvent)
}

// appendJobEvent appends ev as encoding/json encodes a jobs.Event, without
// reflection: the fields in declaration order, the empty ones left out,
// strings escaped as encoding/json escapes them and AvgDistance in its
// float format. Like encoding/json it refuses a NaN or infinite distance.
func appendJobEvent(dst []byte, ev jobs.Event) ([]byte, error) {
	dst = strconv.AppendInt(append(dst, `{"seq":`...), int64(ev.Seq), 10)
	dst = appendJSONString(append(dst, `,"type":`...), string(ev.Type))
	if ev.State != "" {
		dst = appendJSONString(append(dst, `,"state":`...), string(ev.State))
	}
	if ev.Attempt != 0 {
		dst = strconv.AppendInt(append(dst, `,"attempt":`...), int64(ev.Attempt), 10)
	}
	if ev.Error != "" {
		dst = appendJSONString(append(dst, `,"error":`...), ev.Error)
	}
	if st := ev.Step; st != nil {
		d := st.AvgDistance
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return dst, fmt.Errorf("server: cannot encode the distance %v", d)
		}
		dst = strconv.AppendInt(append(dst, `,"step":{"Attribute":`...), int64(st.Attribute), 10)
		dst = appendJSONFloat(append(dst, `,"AvgDistance":`...), d)
		dst = strconv.AppendInt(append(dst, `,"Partitions":`...), int64(st.Partitions), 10)
		dst = strconv.AppendBool(append(dst, `,"Accepted":`...), st.Accepted)
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// appendJSONString appends s quoted as encoding/json quotes it: as it is
// when it holds only printable ASCII that needs no escape, through
// jsonString otherwise.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return append(append(append(dst, '"'), jsonString(s)...), '"')
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// appendJSONFloat appends a finite f in encoding/json's float64 format:
// the shortest representation, in exponent form below 1e-6 and from 1e21
// on, with a one-digit negative exponent unpadded.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}
