package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/jobs"
	"fairrank/internal/simulate"
	"fairrank/internal/store"
)

// putDataset registers a deterministic population on s through the one
// registration path, so a server rebuilt over the same store (including
// after a simulated crash) reloads the exact same dataset bytes.
func putDataset(t *testing.T, s *Server, name string, n int) {
	t.Helper()
	ds, err := simulate.PaperWorkers(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutDataset(name, ds); err != nil {
		t.Fatal(err)
	}
}

// waitJobHTTP polls GET /v1/jobs/{id} until the job reaches want.
func waitJobHTTP(t *testing.T, baseURL, id string, want jobs.State) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var j jobs.Job
	for time.Now().Before(deadline) {
		if status := getJSON(t, baseURL+"/v1/jobs/"+id, &j); status != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, status)
		}
		if j.State == want {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s: state %s after timeout, want %s (error %q)", id, j.State, want, j.Error)
	return jobs.Job{}
}

func jobSpecBody(weights map[string]float64, seed uint64) map[string]any {
	return map[string]any{"dataset": "demo", "weights": weights, "seed": seed, "budget": 500}
}

// TestJobsEndToEndDedup is the acceptance scenario: N identical and M
// distinct submissions over HTTP produce exactly M engine runs, and every
// client ends up with the result for the spec it submitted.
func TestJobsEndToEndDedup(t *testing.T) {
	s, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "demo", 80)

	const identical, distinct = 6, 3
	specs := make([]map[string]any, distinct)
	specs[0] = jobSpecBody(map[string]float64{"LanguageTest": 1}, 1)
	specs[1] = jobSpecBody(map[string]float64{"LanguageTest": 1, "ApprovalRate": 2}, 1)
	specs[2] = jobSpecBody(map[string]float64{"LanguageTest": 1}, 2) // same weights, new seed

	// N submissions of spec 0: the first creates (202), the rest coalesce
	// (200) onto the same job whether it is still active or already done.
	var firstID string
	for i := 0; i < identical; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", specs[0])
		var j jobs.Job
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatalf("submission %d: %v (%s)", i, err, body)
		}
		switch {
		case i == 0 && resp.StatusCode != http.StatusAccepted:
			t.Fatalf("first submission status %d", resp.StatusCode)
		case i > 0 && resp.StatusCode != http.StatusOK:
			t.Fatalf("duplicate submission %d status %d", i, resp.StatusCode)
		case i > 0 && j.ID != firstID:
			t.Fatalf("duplicate submission %d landed on %s, want %s", i, j.ID, firstID)
		}
		if i == 0 {
			firstID = j.ID
		}
	}
	ids := []string{firstID}
	for _, spec := range specs[1:] {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("distinct submission status %d (%s)", resp.StatusCode, body)
		}
		var j jobs.Job
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}

	results := map[string]json.RawMessage{}
	for _, id := range ids {
		j := waitJobHTTP(t, ts.URL, id, jobs.StateDone)
		if len(j.Result) == 0 {
			t.Fatalf("job %s done without result", id)
		}
		results[id] = j.Result
	}
	if runs := s.Jobs().Runs(); runs != distinct {
		t.Fatalf("engine ran %d times for %d distinct specs (+%d duplicates)", runs, distinct, identical-1)
	}
	// The seed-only change must actually change the audit input hash —
	// distinct jobs, even if their unfairness happens to coincide.
	if ids[0] == ids[2] {
		t.Fatal("distinct seeds were deduplicated together")
	}
	for id, raw := range results {
		var res struct {
			Dataset    string  `json:"dataset"`
			Unfairness float64 `json:"unfairness"`
		}
		if err := json.Unmarshal(raw, &res); err != nil || res.Dataset != "demo" {
			t.Fatalf("job %s result malformed: %v (%s)", id, err, raw)
		}
	}
}

// TestJobsRestartMidRunBitIdentical kills the process (simulated) while a
// job is mid-run, restarts over the same store, and requires the
// recovered job to complete with a result byte-identical to a run that
// was never interrupted.
func TestJobsRestartMidRunBitIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "srv.db")
	db, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Server 1: the executor signals and then stalls until the crash.
	started := make(chan struct{})
	stall := func(jobs.Executor) jobs.Executor {
		return func(ctx context.Context, j jobs.Job, progress func(core.TraceStep)) ([]byte, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}
	}
	s1, err := New(db, func(s *Server) { s.jobExecWrap = stall })
	if err != nil {
		t.Fatal(err)
	}
	putDataset(t, s1, "demo", 80)
	ts1 := httptest.NewServer(s1.Handler())
	spec := jobSpecBody(map[string]float64{"LanguageTest": 1, "ApprovalRate": 3}, 7)
	resp, body := postJSON(t, ts1.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d (%s)", resp.StatusCode, body)
	}
	var submitted jobs.Job
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	<-started
	s1.Jobs().Kill()
	ts1.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Server 2: plain restart over the same store. Recovery requeues the
	// interrupted job and the real executor finishes it.
	db2, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.Close() })
	s2, err := New(db2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	recovered := waitJobHTTP(t, ts2.URL, submitted.ID, jobs.StateDone)
	if !recovered.Recovered {
		t.Fatal("job completed after restart but is not flagged Recovered")
	}

	// Server 3: a clean run of the same spec on an identical dataset,
	// never crashed — the recovery baseline.
	s3, ts3, _ := newTestServer(t)
	_ = s3
	uploadDataset(t, ts3, "demo", 80)
	resp, body = postJSON(t, ts3.URL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("clean submit status %d (%s)", resp.StatusCode, body)
	}
	var clean jobs.Job
	if err := json.Unmarshal(body, &clean); err != nil {
		t.Fatal(err)
	}
	cleanDone := waitJobHTTP(t, ts3.URL, clean.ID, jobs.StateDone)
	if !bytes.Equal(recovered.Result, cleanDone.Result) {
		t.Fatalf("recovered result is not bit-identical:\n  recovered %s\n  clean     %s",
			recovered.Result, cleanDone.Result)
	}
}

// TestJobsAdmissionShedsOverHTTP pins the 429 surface: a full queue sheds
// with Retry-After, and capacity opening readmits.
func TestJobsAdmissionShedsOverHTTP(t *testing.T) {
	path := filepath.Join(t.TempDir(), "srv.db")
	db, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	release := make(chan struct{})
	gate := func(exec jobs.Executor) jobs.Executor {
		return func(ctx context.Context, j jobs.Job, progress func(core.TraceStep)) ([]byte, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return exec(ctx, j, progress)
		}
	}
	s, err := New(db,
		WithJobQueueLimit(1),
		func(s *Server) { s.jobExecWrap = gate },
	)
	if err != nil {
		t.Fatal(err)
	}
	putDataset(t, s, "demo", 40)
	t.Cleanup(func() {
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, body := postJSON(t, ts.URL+"/v1/jobs", jobSpecBody(map[string]float64{"LanguageTest": 1}, 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d (%s)", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts.URL+"/v1/jobs", jobSpecBody(map[string]float64{"LanguageTest": 1}, 2))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status %d (%s)", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	// A duplicate of the running spec still coalesces while the queue is
	// full: dedup is not admission.
	resp, body = postJSON(t, ts.URL+"/v1/jobs", jobSpecBody(map[string]float64{"LanguageTest": 1}, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dedup-under-pressure status %d (%s)", resp.StatusCode, body)
	}
}

// TestJobsListPaginationHTTP pins the satellite fix: GET /v1/jobs is
// paginated with a bounded default instead of serializing all history.
func TestJobsListPaginationHTTP(t *testing.T) {
	s, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "demo", 40)
	var ids []string
	for i := 0; i < 5; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", jobSpecBody(map[string]float64{"LanguageTest": 1}, uint64(i+1)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status %d (%s)", i, resp.StatusCode, body)
		}
		var j jobs.Job
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		waitJobHTTP(t, ts.URL, id, jobs.StateDone)
	}
	if runs := s.Jobs().Runs(); runs != 5 {
		t.Fatalf("runs = %d, want 5", runs)
	}

	var page struct {
		Jobs   []jobs.Job `json:"jobs"`
		Total  int        `json:"total"`
		Offset int        `json:"offset"`
		Limit  int        `json:"limit"`
	}
	if status := getJSON(t, ts.URL+"/v1/jobs?limit=2", &page); status != http.StatusOK {
		t.Fatalf("list status %d", status)
	}
	if page.Total != 5 || len(page.Jobs) != 2 || page.Limit != 2 {
		t.Fatalf("page = %d jobs of %d (limit %d)", len(page.Jobs), page.Total, page.Limit)
	}
	if page.Jobs[0].ID != ids[4] {
		t.Fatalf("newest-first violated: first is %s, want %s", page.Jobs[0].ID, ids[4])
	}
	if status := getJSON(t, ts.URL+"/v1/jobs?limit=2&offset=4", &page); status != http.StatusOK {
		t.Fatalf("offset list status %d", status)
	}
	if len(page.Jobs) != 1 || page.Jobs[0].ID != ids[0] {
		t.Fatalf("tail page = %+v", page.Jobs)
	}
	if status := getJSON(t, ts.URL+"/v1/jobs?state=done", &page); status != http.StatusOK || page.Total != 5 {
		t.Fatalf("state filter: status %d, total %d", status, page.Total)
	}
	// Defaults and validation.
	if status := getJSON(t, ts.URL+"/v1/jobs", &page); status != http.StatusOK || page.Limit != 50 {
		t.Fatalf("default limit = %d (status %d)", page.Limit, status)
	}
	// Negative and malformed paging must be a 400, never a panic, an
	// empty 200, or (clustered) a wasted fan-out — regression for the
	// scatter path validating after the fact.
	var errResp map[string]any
	for _, bad := range []string{
		"?limit=0", "?limit=-1", "?limit=-2", "?limit=x",
		"?offset=-1", "?offset=-999999", "?offset=1.5", "?limit=-1&offset=3",
		"?state=bogus",
	} {
		if status := getJSON(t, ts.URL+"/v1/jobs"+bad, &errResp); status != http.StatusBadRequest {
			t.Fatalf("GET /v1/jobs%s status %d, want 400", bad, status)
		}
	}
}

// TestJobsCancelAndErrorsHTTP covers DELETE semantics and submission
// error mapping.
func TestJobsCancelAndErrorsHTTP(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "demo", 40)

	// Unknown references and malformed specs are 400 at submit, not failed
	// jobs. TestAuditErrors covers the audit fields of the spec.
	lang := map[string]float64{"LanguageTest": 1}
	for name, spec := range map[string]map[string]any{
		"unknown dataset": {"dataset": "nope", "weights": lang},
		"unknown field":   {"dataset": "demo", "weights": lang, "typo": 1},
		"bad weight":      {"dataset": "demo", "weights": map[string]float64{"Bogus": 1}},
		"negative rounds": {"dataset": "demo", "weights": lang, "significance_rounds": -1},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s)", name, resp.StatusCode, body)
		}
	}

	// Cancel: unknown id 404; terminal job 409.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-424242", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown: %v %d", err, resp.StatusCode)
	}
	resp, body := postJSON(t, ts.URL+"/v1/jobs", jobSpecBody(map[string]float64{"LanguageTest": 1}, 1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d (%s)", resp.StatusCode, body)
	}
	var j jobs.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	waitJobHTTP(t, ts.URL, j.ID, jobs.StateDone)
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel terminal: %v %d", err, resp.StatusCode)
	}
}

// TestJobsEventsSSE follows a job over GET /v1/jobs/{id}/events: replayed
// lifecycle events, live engine progress, and stream termination at the
// terminal state.
func TestJobsEventsSSE(t *testing.T) {
	path := filepath.Join(t.TempDir(), "srv.db")
	db, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	// Gate the run until the SSE client is attached, so live progress and
	// the terminal transition are observed on the wire, not just replayed.
	release := make(chan struct{})
	gate := func(exec jobs.Executor) jobs.Executor {
		return func(ctx context.Context, j jobs.Job, progress func(core.TraceStep)) ([]byte, error) {
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return exec(ctx, j, progress)
		}
	}
	s, err := New(db, func(s *Server) { s.jobExecWrap = gate })
	if err != nil {
		t.Fatal(err)
	}
	putDataset(t, s, "demo", 80)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, body := postJSON(t, ts.URL+"/v1/jobs", jobSpecBody(map[string]float64{"LanguageTest": 1, "ApprovalRate": 1}, 3))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d (%s)", resp.StatusCode, body)
	}
	var j jobs.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}

	stream, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	// The stream closes by itself at the terminal event; collect it all.
	// The gate opens once the first replayed event proves we are attached.
	var states []jobs.State
	var progress int
	released := false
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		if !released {
			close(release)
			released = true
		}
		var ev jobs.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		switch ev.Type {
		case jobs.EventState:
			states = append(states, ev.State)
		case jobs.EventProgress:
			if ev.Step == nil {
				t.Fatalf("progress event without step: %q", line)
			}
			progress++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(states) == 0 || states[len(states)-1] != jobs.StateDone {
		t.Fatalf("states over SSE = %v, want trailing done", states)
	}
	if progress == 0 {
		t.Fatal("no engine progress events on the stream")
	}
	// Unknown job: 404, not an empty stream.
	if resp, err := http.Get(ts.URL + "/v1/jobs/job-424242/events"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("events for unknown job: %v %d", err, resp.StatusCode)
	}
}
