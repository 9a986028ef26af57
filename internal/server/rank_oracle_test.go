package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"fairrank/internal/marketplace"
	"fairrank/internal/rerank"
)

// oracleRank is the rank handler's whole-pool composition as first
// written: it sorts the whole pool (Rank with k = 0), serves the plain
// page as its prefix, re-ranks the sorted pool and computes NDCG over an
// N-float relevance vector. The selection-based handler must answer every
// request with the same status and the same bytes.
func (s *Server) oracleRank(w http.ResponseWriter, r *http.Request, req rankPostRequest) (rankPostResponse, bool) {
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
	// Rank the whole (possibly query-filtered) pool, not just the page: a
	// re-ranker must be able to promote candidates from beyond the top-k.
	var pool []marketplace.RankedWorker
	if req.Q != "" {
		pool, err = m.RankQuery(t.ID, req.Q, 0)
	} else {
		pool, err = m.Rank(t.ID, 0)
	}
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}
	k = min(k, len(pool))
	if req.Algorithm == "" {
		return rankPostResponse{Ranking: entries(ds, pool[:k])}, true
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
	before := pool[:len(page)]

	resp := rankPostResponse{Ranking: entries(ds, page), Algorithm: req.Algorithm}
	relevance := make([]float64, ds.N())
	for _, rw := range pool {
		relevance[rw.Worker] = rw.Score
	}
	if ndcg, err := marketplace.NDCG(relevance, page); err == nil {
		resp.NDCG = &ndcg
	}
	if attr >= 0 {
		if exp, err := marketplace.GroupExposure(ds, attr, before); err == nil {
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
		ub, err := rerank.AuditPage(r.Context(), ds, before, attr)
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

// TestRankMatchesWholePoolOracle compares whole POST /v1/rank bodies —
// pages, NDCG, both disparities and both audit values — with the
// whole-pool oracle across algorithms, attributes, query filters, page
// sizes and knobs, error answers included.
func TestRankMatchesWholePoolOracle(t *testing.T) {
	s, ts, _ := newTestServer(t)
	uploadSkewed(t, ts, "skew", 300)
	task := postBiasedTask(t, ts, "skew")

	serve := func(handle func(http.ResponseWriter, *http.Request, rankPostRequest) (rankPostResponse, bool), req rankPostRequest) (int, []byte) {
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		r := httptest.NewRequest("POST", "/v1/rank", bytes.NewReader(raw))
		if resp, ok := handle(rec, r, req); ok {
			writeJSON(rec, http.StatusOK, resp)
		}
		return rec.Code, rec.Body.Bytes()
	}
	queries := []string{"", "YearsExperience >= 5", "Gender = 'Female'",
		"LanguageTest > 40 AND NOT Ethnicity = 'Other'", "Country = 'Nowhere'", "YearsExperience >>"}
	algorithms := append([]string{""}, rerank.Rerankers()...)
	attributes := []string{"", "Gender", "Country", "Language", "Ethnicity", "YearOfBirth", "YearsExperience"}
	params := []rerank.Params{{}, {Epsilon: 0.1, Alpha: 0.05, Seed: 7, Spread: 0.01}, {Epsilon: 1, Alpha: 0.3, Seed: 8, Spread: 1}}
	compared := 0
	for _, q := range queries {
		for _, k := range []int{0, 1, 10, 37, 299, 300, 305} {
			for _, alg := range algorithms {
				for ai, attr := range attributes {
					for pi, p := range params {
						if alg == "" && (ai > 0 || pi > 0) {
							continue
						}
						req := rankPostRequest{Task: task, Q: q, K: k, Algorithm: alg, Attribute: attr, Params: p,
							// The audit runs the core engine twice per page.
							Audit: k <= 37 && pi == 1}
						gotCode, got := serve(s.rank, req)
						wantCode, want := serve(s.oracleRank, req)
						if gotCode != wantCode || !bytes.Equal(got, want) {
							t.Fatalf("%+v:\n%d %s\noracle\n%d %s", req, gotCode, got, wantCode, want)
						}
						if gotCode == http.StatusOK && alg != "" {
							compared++
						}
					}
				}
			}
		}
	}
	if compared < 500 {
		t.Fatalf("only %d re-ranked pages compared", compared)
	}
}
