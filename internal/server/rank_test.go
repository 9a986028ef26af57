package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fairrank/internal/rerank"
	"fairrank/internal/simulate"
)

// uploadSkewed uploads a population whose LanguageTest scores are
// inflated for English speakers, so a LanguageTest-weighted task ranks
// with real demographic bias — the population the mitigation endpoint
// exists for.
func uploadSkewed(t *testing.T, ts *httptest.Server, name string, n int) {
	t.Helper()
	// Bias 10 keeps minority speakers inside the unmitigated page but
	// clustered at its bottom — the regime where a within-page audit can
	// see the unfairness a re-ranker fixes (a fully shut-out group is
	// invisible to a within-page measure; the disparity axis covers that).
	ds, err := simulate.SkewedWorkers(n, 42, simulate.Options{
		SkillBias: 10,
		BiasAttr:  "Language",
		BiasValue: "English",
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/datasets/"+name, "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
}

// postBiasedTask posts the LanguageTest-weighted task over the skewed
// dataset and returns its ID.
func postBiasedTask(t *testing.T, ts *httptest.Server, dataset string) string {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/tasks", taskSpec{
		ID: "lang-task", Title: "translator", Dataset: dataset,
		Weights: map[string]float64{"LanguageTest": 1},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("task status %d: %s", resp.StatusCode, body)
	}
	return "lang-task"
}

func TestRankPostPlainMatchesGet(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadSkewed(t, ts, "skew", 300)
	task := postBiasedTask(t, ts, "skew")

	var viaGet []rankedEntry
	if code := getJSON(t, ts.URL+"/v1/rank?task="+task+"&k=25", &viaGet); code != http.StatusOK {
		t.Fatalf("GET status %d", code)
	}
	resp, body := postJSON(t, ts.URL+"/v1/rank", rankPostRequest{Task: task, K: 25})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d: %s", resp.StatusCode, body)
	}
	var viaPost rankPostResponse
	if err := json.Unmarshal(body, &viaPost); err != nil {
		t.Fatal(err)
	}
	if len(viaPost.Ranking) != len(viaGet) {
		t.Fatalf("POST page size %d, GET %d", len(viaPost.Ranking), len(viaGet))
	}
	for i := range viaGet {
		if viaPost.Ranking[i] != viaGet[i] {
			t.Fatalf("position %d differs: POST %+v, GET %+v", i, viaPost.Ranking[i], viaGet[i])
		}
	}
	if viaPost.NDCG != nil || viaPost.UnfairnessBefore != nil {
		t.Fatal("plain page carries mitigation diagnostics")
	}
}

// The acceptance path: a FA*IR page over the biased task, audited by the
// core engine, must be strictly fairer than the unmitigated page at a
// bounded utility cost.
func TestRankPostFairTopKReducesUnfairness(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadSkewed(t, ts, "skew", 600)
	task := postBiasedTask(t, ts, "skew")

	resp, body := postJSON(t, ts.URL+"/v1/rank", rankPostRequest{
		Task: task, K: 50, Algorithm: "fair-topk", Attribute: "Language", Audit: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out rankPostResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Ranking) != 50 {
		t.Fatalf("page size %d", len(out.Ranking))
	}
	if out.UnfairnessBefore == nil || out.UnfairnessAfter == nil {
		t.Fatalf("audit fields missing: %s", body)
	}
	if *out.UnfairnessAfter >= *out.UnfairnessBefore {
		t.Fatalf("unfairness not reduced: %v -> %v", *out.UnfairnessBefore, *out.UnfairnessAfter)
	}
	if out.NDCG == nil || *out.NDCG < 0.8 || *out.NDCG > 1+1e-9 {
		t.Fatalf("NDCG out of bounds: %v", out.NDCG)
	}
	// The unmitigated page may shut a group out entirely (disparity +Inf,
	// omitted from the payload); the mitigated page must always be finite
	// and, when both are present, strictly better.
	if out.DisparityAfter == nil {
		t.Fatal("mitigated disparity missing or infinite")
	}
	if out.DisparityBefore != nil && *out.DisparityAfter >= *out.DisparityBefore {
		t.Fatalf("exposure disparity not reduced: %v -> %v", *out.DisparityBefore, *out.DisparityAfter)
	}
}

// Every registered re-ranker must serve the biased task through the
// endpoint; each mitigated page must improve page-level exposure
// disparity over the unmitigated one.
func TestRankPostAllAlgorithms(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadSkewed(t, ts, "skew", 400)
	task := postBiasedTask(t, ts, "skew")

	var names []string
	if code := getJSON(t, ts.URL+"/v1/rerankers", &names); code != http.StatusOK {
		t.Fatalf("rerankers status %d", code)
	}
	want := rerank.Rerankers()
	if len(names) != len(want) {
		t.Fatalf("rerankers = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("rerankers = %v, want %v", names, want)
		}
	}
	for _, name := range names {
		resp, body := postJSON(t, ts.URL+"/v1/rank", rankPostRequest{
			Task: task, K: 40, Algorithm: name, Attribute: "Language",
			Params: rerank.Params{Epsilon: 1},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, resp.StatusCode, body)
		}
		var out rankPostResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Algorithm != name {
			t.Fatalf("algorithm echoed as %q", out.Algorithm)
		}
		if out.DisparityAfter == nil || out.NDCG == nil {
			t.Fatalf("%s: diagnostics missing: %s", name, body)
		}
		if out.DisparityBefore != nil && *out.DisparityAfter >= *out.DisparityBefore {
			t.Fatalf("%s: disparity not improved: %v -> %v",
				name, *out.DisparityBefore, *out.DisparityAfter)
		}
	}
}

func TestRankPostValidation(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadSkewed(t, ts, "skew", 120)
	task := postBiasedTask(t, ts, "skew")

	cases := []struct {
		name string
		req  rankPostRequest
		code int
	}{
		{"missing task", rankPostRequest{}, http.StatusBadRequest},
		{"unknown task", rankPostRequest{Task: "nope"}, http.StatusNotFound},
		{"negative k", rankPostRequest{Task: task, K: -1}, http.StatusBadRequest},
		{"largest k", rankPostRequest{Task: task, K: maxPageSize}, http.StatusOK},
		{"k past the bound", rankPostRequest{Task: task, K: maxPageSize + 1}, http.StatusBadRequest},
		{"re-ranked k past the bound", rankPostRequest{Task: task, K: maxPageSize + 1, Algorithm: "fair-topk", Attribute: "Language"},
			http.StatusBadRequest},
		{"unknown algorithm", rankPostRequest{Task: task, Algorithm: "nope", Attribute: "Language"}, http.StatusBadRequest},
		{"bad attribute", rankPostRequest{Task: task, Algorithm: "fair-topk", Attribute: "LanguageTest"}, http.StatusBadRequest},
		{"missing attribute", rankPostRequest{Task: task, Algorithm: "fair-topk"}, http.StatusBadRequest},
		{"bad alpha", rankPostRequest{Task: task, Algorithm: "fair-topk", Attribute: "Language",
			Params: rerank.Params{Alpha: 2}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/rank", c.req)
		if resp.StatusCode != c.code {
			t.Errorf("%s: status %d (want %d): %s", c.name, resp.StatusCode, c.code, body)
		}
	}
	// GET bounds k the same way.
	for k, code := range map[int]int{maxPageSize: http.StatusOK, maxPageSize + 1: http.StatusBadRequest} {
		var out any
		if got := getJSON(t, fmt.Sprintf("%s/v1/rank?task=%s&k=%d", ts.URL, task, k), &out); got != code {
			t.Errorf("GET k=%d: status %d (want %d): %v", k, got, code, out)
		}
	}

	// The unknown-algorithm error must list the registered names.
	resp, body := postJSON(t, ts.URL+"/v1/rank", rankPostRequest{
		Task: task, Algorithm: "nope", Attribute: "Language",
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "fair-topk") {
		t.Fatalf("unknown-algorithm error unhelpful: %d %s", resp.StatusCode, body)
	}
}

// The POST /v1/rank body is bounded and strictly decoded: unknown fields
// (top-level or in params), trailing data and oversized bodies are
// rejected before any ranking work, while trailing whitespace is fine.
func TestRankPostStrictBody(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadSkewed(t, ts, "skew", 120)
	task := postBiasedTask(t, ts, "skew")
	plain := `{"task":"` + task + `","k":5}`

	cases := []struct {
		name, body string
		code       int
		msg        string
	}{
		{"plain", plain, http.StatusOK, ""},
		{"trailing whitespace", plain + " \n", http.StatusOK, ""},
		{"unknown field", `{"task":"` + task + `","kk":5}`, http.StatusBadRequest, "unknown field"},
		{"unknown param", `{"task":"` + task + `","algorithm":"fair-topk","attribute":"Language","params":{"alpah":0.1}}`,
			http.StatusBadRequest, "unknown field"},
		{"second value", plain + plain, http.StatusBadRequest, "trailing data"},
		{"trailing garbage", plain + " x", http.StatusBadRequest, "trailing data"},
		{"oversized", `{"task":"` + task + `","q":"` + strings.Repeat("a", maxRequestBody) + `"}`,
			http.StatusRequestEntityTooLarge, "too large"},
		{"oversized tail", plain + strings.Repeat(" ", maxRequestBody), http.StatusRequestEntityTooLarge, "too large"},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/v1/rank", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		_, _ = out.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.code || !strings.Contains(out.String(), c.msg) {
			t.Errorf("%s: status %d %s, want %d with %q", c.name, resp.StatusCode, out.String(), c.code, c.msg)
		}
	}
}

// Serving through the endpoint must populate the per-algorithm telemetry
// series on /metrics.
func TestRankPostTelemetry(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadSkewed(t, ts, "skew", 120)
	task := postBiasedTask(t, ts, "skew")

	resp, body := postJSON(t, ts.URL+"/v1/rank", rankPostRequest{
		Task: task, K: 20, Algorithm: "det-cons", Attribute: "Language",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(mresp.Body)
	text := buf.String()
	for _, want := range []string{
		rerank.MetricServes, rerank.MetricServeSeconds, rerank.MetricTableCacheSize,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if !strings.Contains(text, `algorithm="det-cons"`) {
		t.Error("/metrics missing the det-cons label")
	}
}
