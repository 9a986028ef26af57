package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fairrank/internal/cluster"
	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/jobs"
	"fairrank/internal/rerank"
	"fairrank/internal/simulate"
	"fairrank/internal/store"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "srv.db")
	db, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	s, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, path
}

func uploadDataset(t *testing.T, ts *httptest.Server, name string, n int) {
	t.Helper()
	ds, err := simulate.PaperWorkers(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	uploadSnapshot(t, ts, name, ds)
}

// uploadSnapshot uploads ds as name in one snapshot request and requires
// a 201.
func uploadSnapshot(t testing.TB, ts *httptest.Server, name string, ds *dataset.Dataset) {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/datasets/"+name, contentTypeSnapshot, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	_, _ = out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// runJob submits spec to POST /v1/jobs, requires a 202, and returns the
// job once it is done.
func runJob(t *testing.T, baseURL string, spec map[string]any) jobs.Job {
	t.Helper()
	resp, body := postJSON(t, baseURL+"/v1/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var j jobs.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	return waitJobHTTP(t, baseURL, j.ID, jobs.StateDone)
}

func TestDashboard(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "workers", 60)
	postJSON(t, ts.URL+"/v1/tasks", map[string]any{
		"id": "gig", "title": "a <script> test", "dataset": "workers",
		"weights": map[string]float64{"LanguageTest": 1},
	})
	j := runJob(t, ts.URL, map[string]any{
		"dataset": "workers", "weights": map[string]float64{"LanguageTest": 1},
		"significance_rounds": 20,
	})
	var res jobResult
	if err := json.Unmarshal(j.Result, &res); err != nil || res.PValue == nil {
		t.Fatalf("job result %s: %v", j.Result, err)
	}
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("dashboard = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type = %q", ct)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	html := body.String()
	pv := fmt.Sprintf("%.3f", *res.PValue)
	for _, want := range []string{"fairrank", "workers", "gig", j.ID, pv} {
		if !strings.Contains(html, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	if strings.Contains(html, "%!") {
		t.Error("dashboard has a bad format verb (a pointer printed as a number?)")
	}
	// Task title must be HTML-escaped.
	if strings.Contains(html, "<script>") {
		t.Error("dashboard did not escape task title")
	}
}

func TestHealthz(t *testing.T) {
	_, ts, _ := newTestServer(t)
	var out map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &out); code != 200 || out["status"] != "ok" {
		t.Fatalf("healthz = %d %v", code, out)
	}
}

func TestDatasetLifecycle(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "workers", 120)

	var list []map[string]any
	if code := getJSON(t, ts.URL+"/v1/datasets", &list); code != 200 || len(list) != 1 {
		t.Fatalf("list = %d %v", code, list)
	}
	var info map[string]any
	if code := getJSON(t, ts.URL+"/v1/datasets/workers", &info); code != 200 {
		t.Fatalf("get = %d", code)
	}
	if info["workers"].(float64) != 120 {
		t.Fatalf("info = %v", info)
	}
	if code := getJSON(t, ts.URL+"/v1/datasets/missing", nil); code != 404 {
		t.Fatalf("missing dataset = %d", code)
	}
}

func TestDatasetUploadCSV(t *testing.T) {
	_, ts, _ := newTestServer(t)
	ds, _ := simulate.PaperWorkers(30, 1)
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/datasets/csvset", "text/csv", &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("csv upload = %d", resp.StatusCode)
	}
}

func TestDatasetUploadErrors(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/datasets/x", contentTypeSnapshot,
		strings.NewReader("not a snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage upload = %d", resp.StatusCode)
	}
	// Only CSV and snapshot bodies register: octet-stream (the legacy
	// binary format) and an untyped body are refused like any other type.
	for _, ct := range []string{"application/xml", "application/octet-stream", ""} {
		resp, err = http.Post(ts.URL+"/v1/datasets/x", ct, strings.NewReader("<x/>"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Fatalf("content type %q = %d", ct, resp.StatusCode)
		}
	}
}

func TestTaskLifecycleAndRank(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "workers", 200)

	task := map[string]any{
		"id": "gig1", "title": "web gig", "dataset": "workers",
		"weights": map[string]float64{"LanguageTest": 0.7, "ApprovalRate": 0.3},
	}
	resp, _ := postJSON(t, ts.URL+"/v1/tasks", task)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post task = %d", resp.StatusCode)
	}
	// Duplicate rejected.
	resp, _ = postJSON(t, ts.URL+"/v1/tasks", task)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate task = %d", resp.StatusCode)
	}
	var tasks []map[string]any
	if code := getJSON(t, ts.URL+"/v1/tasks", &tasks); code != 200 || len(tasks) != 1 {
		t.Fatalf("list tasks = %d %v", code, tasks)
	}

	var ranked []map[string]any
	if code := getJSON(t, ts.URL+"/v1/rank?task=gig1&k=5", &ranked); code != 200 {
		t.Fatalf("rank = %d", code)
	}
	if len(ranked) != 5 {
		t.Fatalf("%d ranked entries", len(ranked))
	}
	prev := 2.0
	for _, e := range ranked {
		s := e["score"].(float64)
		if s > prev {
			t.Fatal("ranking not descending")
		}
		prev = s
	}

	// Omitting k or sending 0 means the default page of 10, not the whole
	// population.
	for _, q := range []string{"", "&k=0"} {
		if code := getJSON(t, ts.URL+"/v1/rank?task=gig1"+q, &ranked); code != 200 || len(ranked) != 10 {
			t.Fatalf("rank%s = %d with %d entries, want 10", q, code, len(ranked))
		}
	}

	// Filtered ranking.
	var filtered []map[string]any
	url := ts.URL + "/v1/rank?task=gig1&k=5&q=" + urlQueryEscape("Gender = 'Female'")
	if code := getJSON(t, url, &filtered); code != 200 {
		t.Fatalf("filtered rank = %d", code)
	}
	if len(filtered) == 0 {
		t.Fatal("no filtered results")
	}
}

func urlQueryEscape(s string) string {
	r := strings.NewReplacer(" ", "%20", "'", "%27", "=", "%3D")
	return r.Replace(s)
}

func TestTaskErrors(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "workers", 50)
	cases := []map[string]any{
		{"id": "", "dataset": "workers", "weights": map[string]float64{"LanguageTest": 1}},
		{"id": "t", "dataset": "missing", "weights": map[string]float64{"LanguageTest": 1}},
		{"id": "t", "dataset": "workers", "weights": map[string]float64{}},
		{"id": "t", "dataset": "workers", "weights": map[string]float64{"Charisma": 1}},
	}
	for i, c := range cases {
		resp, _ := postJSON(t, ts.URL+"/v1/tasks", c)
		if resp.StatusCode < 400 {
			t.Errorf("case %d accepted with %d", i, resp.StatusCode)
		}
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/tasks", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json = %d", resp.StatusCode)
	}
}

func TestRankErrors(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "workers", 50)
	postJSON(t, ts.URL+"/v1/tasks", map[string]any{
		"id": "t1", "dataset": "workers",
		"weights": map[string]float64{"LanguageTest": 1},
	})
	if code := getJSON(t, ts.URL+"/v1/rank", nil); code != 400 {
		t.Errorf("missing task param = %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/rank?task=missing", nil); code != 404 {
		t.Errorf("missing task = %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/rank?task=t1&k=-2", nil); code != 400 {
		t.Errorf("bad k = %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/rank?task=t1&q=%5B%5D", nil); code != 400 {
		t.Errorf("bad query = %d", code)
	}
}

// TestAuditEndToEnd runs an audit the one way there is — as a job — and
// reads it back. The synchronous audit routes are gone.
func TestAuditEndToEnd(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "workers", 200)

	j := runJob(t, ts.URL, map[string]any{
		"dataset":   "workers",
		"algorithm": "balanced",
		"weights":   map[string]float64{"LanguageTest": 1},
		"bins":      10,
	})
	var audit map[string]any
	if err := json.Unmarshal(j.Result, &audit); err != nil {
		t.Fatal(err)
	}
	if audit["unfairness"].(float64) <= 0 {
		t.Fatal("zero unfairness on random data (suspicious)")
	}
	if len(audit["partitions"].([]any)) < 2 {
		t.Fatal("too few partitions")
	}
	if _, ok := audit["p_value"]; ok {
		t.Fatal("p_value without significance_rounds")
	}
	if j.StartedAt.IsZero() || j.FinishedAt.Before(j.StartedAt) {
		t.Fatalf("job timestamps: started %v, finished %v", j.StartedAt, j.FinishedAt)
	}

	// Stored and listed.
	var page struct {
		Jobs []jobs.Job `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs?state=done", &page); code != 200 || len(page.Jobs) != 1 {
		t.Fatalf("list jobs = %d, %d items", code, len(page.Jobs))
	}
	if !bytes.Equal(page.Jobs[0].Result, j.Result) {
		t.Fatal("listed result differs")
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/job-999999", nil); code != 404 {
		t.Fatalf("missing job = %d", code)
	}
	for _, route := range []string{"POST /v1/audits", "GET /v1/audits", "GET /v1/audits/audit-000001"} {
		method, path, _ := strings.Cut(route, " ")
		req, _ := http.NewRequest(method, ts.URL+path, strings.NewReader(`{}`))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s = %d, want 404", route, resp.StatusCode)
		}
	}
}

// TestAuditWithSignificanceAndAttrs: significance_rounds adds a p-value
// to a job's result and is part of its dedup key — the same spec with
// and without rounds makes two jobs, and only the second carries p_value.
func TestAuditWithSignificanceAndAttrs(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "workers", 150)
	spec := map[string]any{
		"dataset":    "workers",
		"algorithm":  "all-attributes",
		"weights":    map[string]float64{"ApprovalRate": 1},
		"attributes": []string{"Gender", "Country"},
		"seed":       7,
	}
	plain := runJob(t, ts.URL, spec)
	spec["significance_rounds"] = 50
	sig := runJob(t, ts.URL, spec)
	if sig.ID == plain.ID || sig.SpecHash == plain.SpecHash {
		t.Fatalf("rounds 0 and 50 deduplicated onto %s", sig.ID)
	}
	var plainRes, sigRes jobResult
	if err := json.Unmarshal(plain.Result, &plainRes); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(sig.Result, &sigRes); err != nil {
		t.Fatal(err)
	}
	if plainRes.PValue != nil {
		t.Fatal("p_value without significance_rounds")
	}
	if sigRes.PValue == nil || *sigRes.PValue <= 0 || *sigRes.PValue > 1 {
		t.Fatalf("p_value = %v, want one in (0, 1]", sigRes.PValue)
	}
	if sigRes.Unfairness != plainRes.Unfairness {
		t.Fatalf("rounds changed the audit: %v vs %v", sigRes.Unfairness, plainRes.Unfairness)
	}
	// Only Gender×Country cells (≤ 6 partitions).
	if n := len(sigRes.Partitions); n > 6 {
		t.Fatalf("%d partitions from a 2x3 attribute subset", n)
	}
	// A resubmission with rounds coalesces onto the job that has them.
	resp, body := postJSON(t, ts.URL+"/v1/jobs", spec)
	var again jobs.Job
	if err := json.Unmarshal(body, &again); err != nil || resp.StatusCode != http.StatusOK || again.ID != sig.ID {
		t.Fatalf("resubmission = %d %s", resp.StatusCode, body)
	}
}

// TestAuditErrors: a malformed audit spec is a 400 at submit, not a
// failed job.
func TestAuditErrors(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "workers", 50)
	lang := map[string]float64{"LanguageTest": 1}
	cases := []map[string]any{
		{"dataset": "missing", "weights": lang},
		{"dataset": "workers", "weights": map[string]float64{}},
		{"dataset": "workers", "weights": lang, "algorithm": "quantum"},
		{"dataset": "workers", "weights": lang, "metric": "nope"},
		{"dataset": "workers", "weights": lang, "attributes": []string{"Nope"}},
	}
	for i, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", c)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	// An empty attribute list is not an error on a job: jobs.Spec reads it
	// as "every attribute", so it coalesces onto the spec without one.
	plain := runJob(t, ts.URL, map[string]any{"dataset": "workers", "weights": lang})
	resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"dataset": "workers", "weights": lang, "attributes": []string{}})
	var again jobs.Job
	if err := json.Unmarshal(body, &again); err != nil || resp.StatusCode != http.StatusOK || again.ID != plain.ID {
		t.Fatalf("empty attributes = %d %s, want a dedup onto %s", resp.StatusCode, body, plain.ID)
	}
}

// TestRerankEndpoint: the exposure-parity re-ranker is served by POST
// /v1/rank with "algorithm":"exposure-parity"; the old POST /v1/rerank
// route is gone.
func TestRerankEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "workers", 300)
	postJSON(t, ts.URL+"/v1/tasks", map[string]any{
		"id": "t1", "dataset": "workers",
		"weights": map[string]float64{"LanguageTest": 1},
	})
	resp, body := postJSON(t, ts.URL+"/v1/rank", rankPostRequest{
		Task: "t1", K: 20, Algorithm: "exposure-parity", Attribute: "Gender",
		Params: rerank.Params{Epsilon: 1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rerank = %d: %s", resp.StatusCode, body)
	}
	var out rankPostResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Ranking) != 20 {
		t.Fatalf("ranking size = %d", len(out.Ranking))
	}
	if out.DisparityBefore == nil || out.DisparityAfter == nil {
		t.Fatalf("disparity missing: %s", body)
	}
	if *out.DisparityAfter > *out.DisparityBefore {
		t.Fatalf("disparity worsened: %v -> %v", *out.DisparityBefore, *out.DisparityAfter)
	}
	// Errors.
	for i, c := range []struct {
		req  rankPostRequest
		code int
	}{
		{rankPostRequest{Task: "missing", Algorithm: "exposure-parity", Attribute: "Gender"}, http.StatusNotFound},
		{rankPostRequest{Task: "t1", Algorithm: "exposure-parity", Attribute: "Charisma"}, http.StatusBadRequest},
		{rankPostRequest{Task: "t1", Algorithm: "exposure-parity", Attribute: "Gender",
			Params: rerank.Params{Epsilon: -1}}, http.StatusBadRequest},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/rank", c.req)
		if resp.StatusCode != c.code {
			t.Errorf("bad rerank %d: status %d (want %d): %s", i, resp.StatusCode, c.code, body)
		}
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/rerank", map[string]any{"task": "t1", "attribute": "Gender"}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/rerank = %d, want 404", resp.StatusCode)
	}
}

func TestRepairEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "workers", 300)
	req := map[string]any{
		"dataset":  "workers",
		"weights":  map[string]float64{"LanguageTest": 1},
		"group_by": []string{"Gender"},
		"amount":   1.0,
	}
	resp, body := postJSON(t, ts.URL+"/v1/repair", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repair = %d: %s", resp.StatusCode, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out["unfairness_after"].(float64) > out["unfairness_before"].(float64) {
		t.Fatalf("repair worsened unfairness: %v -> %v",
			out["unfairness_before"], out["unfairness_after"])
	}
	if out["groups"].(float64) != 2 {
		t.Fatalf("groups = %v, want 2 (Gender)", out["groups"])
	}
	// Default grouping via balanced.
	req2 := map[string]any{
		"dataset": "workers",
		"weights": map[string]float64{"LanguageTest": 1},
		"amount":  0.5,
	}
	resp, body = postJSON(t, ts.URL+"/v1/repair", req2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repair default grouping = %d: %s", resp.StatusCode, body)
	}
	// Errors.
	for i, bad := range []map[string]any{
		{"dataset": "missing", "weights": map[string]float64{"LanguageTest": 1}, "amount": 1},
		{"dataset": "workers", "weights": map[string]float64{}, "amount": 1},
		{"dataset": "workers", "weights": map[string]float64{"LanguageTest": 1}, "amount": 2},
		{"dataset": "workers", "weights": map[string]float64{"LanguageTest": 1}, "group_by": []string{"Nope"}, "amount": 1},
		// A weight on an attribute the dataset does not observe.
		{"dataset": "workers", "weights": map[string]float64{"Rating": 1}, "amount": 1},
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/repair", bad)
		if resp.StatusCode < 400 {
			t.Errorf("bad repair %d accepted with %d", i, resp.StatusCode)
		}
	}
	// Bins outside [0, jobs.MaxBins], as jobs bound them.
	for _, bins := range []int{-1, jobs.MaxBins + 1} {
		resp, body := postJSON(t, ts.URL+"/v1/repair", map[string]any{
			"dataset": "workers", "weights": map[string]float64{"LanguageTest": 1},
			"group_by": []string{"Gender"}, "amount": 1, "bins": bins,
		})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "out of range") {
			t.Errorf("repair bins %d = %d: %s", bins, resp.StatusCode, body)
		}
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	s, ts, path := newTestServer(t)
	uploadDataset(t, ts, "workers", 80)
	postJSON(t, ts.URL+"/v1/tasks", map[string]any{
		"id": "t1", "dataset": "workers",
		"weights": map[string]float64{"LanguageTest": 1},
	})
	first := runJob(t, ts.URL, map[string]any{
		"dataset": "workers", "weights": map[string]float64{"LanguageTest": 1},
	})
	// A record a synchronous audit route once wrote: nothing reads it, and
	// boot must leave it in place, so a downgrade still serves it.
	legacy := []byte(`{"id":"audit-000001","unfairness":0.1}`)
	if err := s.db.Put("audits", "audit-000001", legacy); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.db.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same store file.
	db, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s2, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	var list []map[string]any
	if code := getJSON(t, ts2.URL+"/v1/datasets", &list); code != 200 || len(list) != 1 {
		t.Fatalf("datasets after restart = %d %v", code, list)
	}
	var tasks []map[string]any
	if code := getJSON(t, ts2.URL+"/v1/tasks", &tasks); code != 200 || len(tasks) != 1 {
		t.Fatalf("tasks after restart = %v", tasks)
	}
	var got jobs.Job
	if code := getJSON(t, ts2.URL+"/v1/jobs/"+first.ID, &got); code != 200 || !bytes.Equal(got.Result, first.Result) {
		t.Fatalf("job after restart = %d %s", code, got.Result)
	}
	// New jobs continue the ID sequence rather than clobbering.
	second := runJob(t, ts2.URL, map[string]any{
		"dataset": "workers", "weights": map[string]float64{"ApprovalRate": 1},
	})
	if second.ID == first.ID {
		t.Fatalf("post-restart job reused ID %s", second.ID)
	}
	if raw, ok := db.Get("audits", "audit-000001"); !ok || !bytes.Equal(raw, legacy) {
		t.Fatalf("legacy audit record after restart: %q, %v", raw, ok)
	}
}

func TestRankUsesStoredTaskAcrossDatasets(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "a", 60)
	uploadDataset(t, ts, "b", 90)
	postJSON(t, ts.URL+"/v1/tasks", map[string]any{
		"id": "tb", "dataset": "b",
		"weights": map[string]float64{"ApprovalRate": 1},
	})
	var ranked []map[string]any
	if code := getJSON(t, ts.URL+"/v1/rank?task=tb&k=1000", &ranked); code != 200 {
		t.Fatalf("rank = %d", code)
	}
	if len(ranked) != 90 {
		t.Fatalf("ranked %d workers, want 90 (dataset b)", len(ranked))
	}
}

func TestExplainEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "workers", 150)
	resp, body := postJSON(t, ts.URL+"/v1/explain", map[string]any{
		"dataset": "workers",
		"weights": map[string]float64{"LanguageTest": 1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain = %d: %s", resp.StatusCode, body)
	}
	var imps []map[string]any
	if err := json.Unmarshal(body, &imps); err != nil {
		t.Fatal(err)
	}
	if len(imps) != 6 {
		t.Fatalf("%d importances, want 6", len(imps))
	}
	if _, ok := imps[0]["Solo"]; !ok {
		t.Fatalf("importance shape: %v", imps[0])
	}
	// Errors.
	resp, _ = postJSON(t, ts.URL+"/v1/explain", map[string]any{
		"dataset": "missing", "weights": map[string]float64{"LanguageTest": 1},
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing dataset = %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/explain", map[string]any{
		"dataset": "workers", "weights": map[string]float64{},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty weights = %d", resp.StatusCode)
	}
	resp, body = postJSON(t, ts.URL+"/v1/explain", map[string]any{
		"dataset": "workers", "weights": map[string]float64{"Rating": 1},
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `\"Rating\" is not an observed attribute`) {
		t.Errorf("unobserved weight = %d: %s", resp.StatusCode, body)
	}
	for _, bins := range []int{-1, jobs.MaxBins + 1} {
		resp, body = postJSON(t, ts.URL+"/v1/explain", map[string]any{
			"dataset": "workers", "weights": map[string]float64{"LanguageTest": 1}, "bins": bins,
		})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "out of range") {
			t.Errorf("explain bins %d = %d: %s", bins, resp.StatusCode, body)
		}
	}
}

func TestAlgorithmsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	var names []string
	if code := getJSON(t, ts.URL+"/v1/algorithms", &names); code != http.StatusOK {
		t.Fatalf("algorithms = %d", code)
	}
	if !reflect.DeepEqual(names, core.Algorithms()) {
		t.Fatalf("endpoint %v != registry %v", names, core.Algorithms())
	}
	for _, want := range []string{"balanced", "unbalanced", "exhaustive"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("algorithm list missing %q: %v", want, names)
		}
	}
}

// TestJobCancelRunning cancels a runaway audit mid-run over HTTP: the
// search must abort promptly and the job end canceled, with no result.
func TestJobCancelRunning(t *testing.T) {
	s, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "workers", 500)

	// exhaustive-cells over all six attributes streams candidates from a
	// Bell-number space: it cannot finish, so only the cancellation can
	// end the job.
	resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"dataset":   "workers",
		"algorithm": "exhaustive-cells",
		"budget":    1 << 40,
		"weights":   map[string]float64{"LanguageTest": 1},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var j jobs.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	waitJobHTTP(t, ts.URL, j.ID, jobs.StateRunning)
	if code := doDelete(t, ts.URL+"/v1/jobs/"+j.ID); code != http.StatusOK {
		t.Fatalf("cancel running job = %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, _ := s.Jobs().Get(j.ID)
		if got.State == jobs.StateCanceled {
			if len(got.Result) != 0 {
				t.Fatalf("canceled job has a result: %s", got.Result)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s 5s after DELETE", got.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJSONBodiesBoundedAndStrict sends every JSON POST route a body over
// its bound (413), one with an unknown field (400) and one with a
// trailing brace (400), then the valid body, which neither check may
// reject. No handler reads an unbounded or lenient body. (POST
// .../baseline takes no body; dataset uploads and chunks carry raw bytes
// under maxUploadBytes.)
func TestJSONBodiesBoundedAndStrict(t *testing.T) {
	s, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "workers", 60)
	const lang = `"weights":{"LanguageTest":1}`
	for _, setup := range []struct{ path, body string }{
		{"/v1/tasks", `{"id":"t1","dataset":"workers",` + lang + `}`},
		{"/v1/monitors", `{"id":"m1","dataset":"workers","attributes":["Gender"],` + lang + `}`},
	} {
		if resp, body := postRaw(t, ts.URL+setup.path, setup.body); resp.StatusCode != http.StatusCreated {
			t.Fatalf("setup %s = %d: %s", setup.path, resp.StatusCode, body)
		}
	}
	if err := s.EnableCluster(cluster.Config{Self: ts.URL, NodeID: "solo"}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Cluster().Close)

	routes := []struct {
		path  string
		limit int
		body  string
	}{
		{"/v1/tasks", maxRequestBody, `{"id":"t2","dataset":"workers",` + lang + `}`},
		{"/v1/rank", maxRequestBody, `{"task":"t1","k":5}`},
		{"/v1/jobs", maxSpecBody, `{"dataset":"workers",` + lang + `}`},
		{"/v1/monitors", maxSpecBody, `{"id":"m2","dataset":"workers","attributes":["Gender"],` + lang + `}`},
		{"/v1/monitors/m1/events", maxEventsBody, `{"events":[{"type":"join","worker":"new-1","protected":{"Gender":"Female"},"score":0.5}]}`},
		{"/v1/repair", maxRequestBody, `{"dataset":"workers",` + lang + `,"group_by":["Gender"],"amount":1}`},
		{"/v1/explain", maxRequestBody, `{"dataset":"workers",` + lang + `}`},
		{"/v1/datasets/up/uploads", maxRequestBody, `{"size":1024}`},
		{"/v1/cluster/steal", cluster.MaxMessageBytes, `{"thief":"peer","max":1}`},
		{"/v1/cluster/ack", cluster.MaxMessageBytes, `{"thief":"peer","tokens":["tok"]}`},
		{"/v1/cluster/hydrate", maxRequestBody, `{"name":"workers","peer":"http://127.0.0.1:1"}`},
	}
	for _, rt := range routes {
		for _, c := range []struct {
			name, body string
			code       int
			msg        string
		}{
			{"oversize", `{"pad":"` + strings.Repeat("a", rt.limit) + `"}`, http.StatusRequestEntityTooLarge, "too large"},
			{"unknown field", `{"zz":1,` + rt.body[1:], http.StatusBadRequest, "unknown field"},
			{"trailing brace", rt.body + `}`, http.StatusBadRequest, "trailing data"},
		} {
			resp, body := postRaw(t, ts.URL+rt.path, c.body)
			if resp.StatusCode != c.code || !strings.Contains(string(body), c.msg) {
				t.Errorf("%s %s: %d %.200s, want %d with %q", rt.path, c.name, resp.StatusCode, body, c.code, c.msg)
			}
		}
		if resp, body := postRaw(t, ts.URL+rt.path, rt.body); resp.StatusCode == http.StatusBadRequest ||
			resp.StatusCode == http.StatusRequestEntityTooLarge {
			t.Errorf("%s valid body: %d %s", rt.path, resp.StatusCode, body)
		}
	}
}

func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}
