package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"fairrank/internal/dataset"
	"fairrank/internal/marketplace"
	"fairrank/internal/rerank"
)

// rankPostRequest is the POST /v1/rank body, and what GET /v1/rank's
// task, k and q parameters parse into. Algorithm "" serves the plain
// score-ranked page; any registered re-ranker name (GET /v1/rerankers)
// re-ranks the task's full candidate pool and serves the
// fairness-constrained page.
type rankPostRequest struct {
	Task string `json:"task"`
	// Q optionally restricts the pool to a keyword query, as GET's q=.
	Q string `json:"q,omitempty"`
	// K is the page size; 0 selects the default (10), negative or past
	// maxPageSize (1000) is an error.
	K int `json:"k,omitempty"`
	// Algorithm is a registered re-ranker name, or "" for no mitigation.
	Algorithm string `json:"algorithm,omitempty"`
	// Attribute names the protected attribute whose groups the re-ranker
	// balances. Required by the group-aware re-rankers; may be empty for
	// proxy-free ones ("randomized"), in which case the group diagnostics
	// (disparity, audit) are skipped — there is no attribute to audit by.
	Attribute string `json:"attribute,omitempty"`
	// Params carries the per-algorithm knobs (epsilon, alpha).
	Params rerank.Params `json:"params,omitempty"`
	// Audit additionally runs the core engine over the before/after pages
	// and reports both unfairness values. Costs an engine search per page.
	Audit bool `json:"audit,omitempty"`
}

// rankPostResponse extends the GET ranking payload with the mitigation
// diagnostics. Pointer fields appear only when a re-ranker ran (and the
// unfairness pair only when audit was requested).
type rankPostResponse struct {
	Ranking   []rankedEntry `json:"ranking"`
	Algorithm string        `json:"algorithm,omitempty"`
	// NDCG is the served page's utility against the score-optimal page.
	NDCG *float64 `json:"ndcg,omitempty"`
	// DisparityBefore/After are the page-level max/min group exposure
	// ratios without and with the re-ranker. A disparity is omitted when
	// it is infinite — some group received zero exposure on that page —
	// since JSON has no encoding for it; an absent before with a present
	// after means the re-ranker recovered a fully shut-out group.
	DisparityBefore *float64 `json:"disparity_before,omitempty"`
	DisparityAfter  *float64 `json:"disparity_after,omitempty"`
	// UnfairnessBefore/After are the core engine's audit of both pages.
	UnfairnessBefore *float64 `json:"unfairness_before,omitempty"`
	UnfairnessAfter  *float64 `json:"unfairness_after,omitempty"`
}

type rankedEntry struct {
	Rank   int     `json:"rank"`
	Worker string  `json:"worker"`
	Score  float64 `json:"score"`
}

// defaultPageSize is the page size when a request omits k or sends 0.
const defaultPageSize = 10

// maxPageSize bounds k. Selecting a page costs O(N log k), but fair-topk
// builds one in O(k²·groups) without checking for cancellation, so a k
// near the size of a million-worker pool would pin a core for hours.
const maxPageSize = 1000

// handleRank serves GET /v1/rank: its query parameters as a plain
// rankPostRequest, answered with the bare ranking array.
func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	req := rankPostRequest{Task: qp.Get("task"), Q: qp.Get("q")}
	if ks := qp.Get("k"); ks != "" {
		k, err := strconv.Atoi(ks)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad k %q", ks))
			return
		}
		req.K = k
	}
	if resp, ok := s.rank(w, r, req); ok {
		writeJSON(w, http.StatusOK, resp.Ranking)
	}
}

func (s *Server) handleRankPost(w http.ResponseWriter, r *http.Request) {
	var req rankPostRequest
	if !decodeBody(w, r, maxRequestBody, &req) {
		return
	}
	if resp, ok := s.rank(w, r, req); ok {
		writeJSON(w, http.StatusOK, resp)
	}
}

// rank serves one ranked page for both methods of /v1/rank. On failure it
// writes the error response and reports false.
func (s *Server) rank(w http.ResponseWriter, r *http.Request, req rankPostRequest) (rankPostResponse, bool) {
	fail := func(status int, err error) (rankPostResponse, bool) {
		writeErr(w, status, err)
		return rankPostResponse{}, false
	}
	if req.Task == "" {
		return fail(http.StatusBadRequest, errors.New("task is required"))
	}
	if req.K < 0 {
		return fail(http.StatusBadRequest, fmt.Errorf("bad k %d", req.K))
	}
	if req.K > maxPageSize {
		return fail(http.StatusBadRequest, fmt.Errorf("k %d exceeds the maximum page size %d", req.K, maxPageSize))
	}
	k := req.K
	if k == 0 {
		k = defaultPageSize
	}
	raw, ok := s.db.Get(bucketTasks, req.Task)
	if !ok {
		return fail(http.StatusNotFound, fmt.Errorf("task %q not found", req.Task))
	}
	var t taskSpec
	if err := json.Unmarshal(raw, &t); err != nil {
		return fail(http.StatusInternalServerError, err)
	}
	ds, ok := s.lookupDataset(w, t.Dataset)
	if !ok {
		return rankPostResponse{}, false
	}
	m, err := marketplace.New(ds)
	if err != nil {
		return fail(http.StatusInternalServerError, err)
	}
	if err := m.PostTask(marketplace.Task{ID: t.ID, Title: t.Title, Weights: t.Weights}); err != nil {
		return fail(http.StatusInternalServerError, err)
	}
	// Score the whole (possibly query-filtered) pool, not just the page: a
	// re-ranker must be able to promote candidates from beyond the top-k.
	// Nothing sorts it whole; the plain page is selected from it.
	pool, err := m.Pool(t.ID, req.Q)
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}
	k = min(k, len(pool))
	plain := marketplace.TopPage(pool, k)
	if req.Algorithm == "" {
		return rankPostResponse{Ranking: entries(ds, plain)}, true
	}

	// An empty attribute is attr = -1: proxy-free re-rankers accept it
	// (they never read the protected column), group-aware ones reject it
	// with their usual out-of-range error.
	attr := -1
	if req.Attribute != "" {
		if attr = ds.Schema().ProtectedIndex(req.Attribute); attr < 0 {
			return fail(http.StatusBadRequest, fmt.Errorf("%q is not a protected attribute", req.Attribute))
		}
	}
	page, err := rerank.Serve(s.metrics, req.Algorithm, ds, attr, pool, k, req.Params)
	switch {
	case errors.Is(err, rerank.ErrInfeasible):
		return fail(http.StatusUnprocessableEntity, err)
	case err != nil:
		return fail(http.StatusBadRequest, err)
	}
	resp := rankPostResponse{Ranking: entries(ds, page), Algorithm: req.Algorithm}
	if ndcg, err := marketplace.PageNDCG(page, plain); err == nil {
		resp.NDCG = &ndcg
	}
	if attr >= 0 {
		if exp, err := marketplace.GroupExposure(ds, attr, plain); err == nil {
			resp.DisparityBefore = finitePtr(marketplace.ExposureDisparity(exp))
		}
		if exp, err := marketplace.GroupExposure(ds, attr, page); err == nil {
			resp.DisparityAfter = finitePtr(marketplace.ExposureDisparity(exp))
		}
	}
	if req.Audit && attr >= 0 {
		// The audit is restricted to the mitigated attribute: it answers
		// "what did this re-ranker change", not "is the page fair along
		// every protected column".
		ub, err := rerank.AuditPage(r.Context(), ds, plain, attr)
		if err != nil {
			return fail(http.StatusInternalServerError, err)
		}
		ua, err := rerank.AuditPage(r.Context(), ds, page, attr)
		if err != nil {
			return fail(http.StatusInternalServerError, err)
		}
		resp.UnfairnessBefore = &ub
		resp.UnfairnessAfter = &ua
	}
	return resp, true
}

// finitePtr boxes v for an omitempty pointer field, dropping the
// JSON-unencodable non-finite values.
func finitePtr(v float64) *float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return nil
	}
	return &v
}

// entries renders a page as the wire ranking format shared with GET.
func entries(ds *dataset.Dataset, page []marketplace.RankedWorker) []rankedEntry {
	out := make([]rankedEntry, len(page))
	for i, rw := range page {
		out[i] = rankedEntry{Rank: rw.Rank, Worker: ds.ID(rw.Worker), Score: rw.Score}
	}
	return out
}

// handleRerankers lists the registered re-ranker names — the
// authoritative validation set for rankPostRequest.Algorithm.
func (s *Server) handleRerankers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rerank.Rerankers())
}
