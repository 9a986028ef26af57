package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/jobs"
	"fairrank/internal/simulate"
)

// jobResult is an audit result as JSON, the form results were stored in
// before result records: the oracle a record's rendering must match.
type jobResult struct {
	Dataset    string           `json:"dataset,omitempty"`
	Algorithm  string           `json:"algorithm"`
	Unfairness float64          `json:"unfairness"`
	Partitions []auditPartition `json:"partitions"`
	PValue     *float64         `json:"p_value,omitempty"`
}

type auditPartition struct {
	Label string `json:"label"`
	Size  int    `json:"size"`
}

// oracleResult is the result path as first written: every label built by
// Partition.Label, the partitions sorted by label, the whole marshaled.
func oracleResult(name string, res *core.Result, schema *dataset.Schema, pValue *float64) ([]byte, error) {
	out := jobResult{
		Dataset:    name,
		Algorithm:  res.Algorithm,
		Unfairness: res.Unfairness,
		Partitions: []auditPartition{},
		PValue:     pValue,
	}
	for _, p := range res.Partitioning.Parts {
		out.Partitions = append(out.Partitions, auditPartition{Label: p.Label(schema), Size: p.Size()})
	}
	sort.Slice(out.Partitions, func(i, k int) bool {
		return out.Partitions[i].Label < out.Partitions[k].Label
	})
	return json.Marshal(out)
}

// oracleSummary reads the summary a list page shows from a JSON result.
func oracleSummary(result []byte) (resultSummary, error) {
	var r struct {
		Dataset    string     `json:"dataset"`
		Algorithm  string     `json:"algorithm"`
		Unfairness float64    `json:"unfairness"`
		Partitions []struct{} `json:"partitions"`
		PValue     *float64   `json:"p_value"`
	}
	err := json.Unmarshal(result, &r)
	return resultSummary{Dataset: r.Dataset, Algorithm: r.Algorithm, Unfairness: r.Unfairness,
		Partitions: len(r.Partitions), PValue: r.PValue}, err
}

// oracleExec is the executor as first written, returning its JSON result.
func (s *Server) oracleExec(ctx context.Context, j jobs.Job) ([]byte, error) {
	spec, err := s.resolveJobSpec(j.Spec)
	if err != nil {
		return nil, err
	}
	e, err := core.NewEvaluator(spec.Dataset, spec.Func, spec.Config)
	if err != nil {
		return nil, err
	}
	spec.Evaluator = e
	res, err := core.Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	var pValue *float64
	if n := j.Spec.SignificanceRounds; n > 0 {
		p, _, err := core.Significance(context.Background(), e, res.Partitioning, n, j.Spec.Seed)
		if err != nil {
			return nil, err
		}
		pValue = &p
	}
	return oracleResult(j.Spec.Dataset, res, spec.Dataset.Schema(), pValue)
}

// apiJob is a job as GET /v1/jobs/{id} serves it: jobs.Job's fields and
// the rendered result, which jobs.Job leaves out of its JSON.
type apiJob struct {
	jobs.Job
	Result json.RawMessage `json:"result,omitempty"`
}

// oracleBody is a job's body as first written: the job with its JSON
// result as a json.RawMessage field, through writeJSON, and the node
// field a clustered node added after it.
func oracleBody(j jobs.Job, result []byte, node string) []byte {
	type clusterJob struct {
		apiJob
		Node string `json:"node,omitempty"`
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, clusterJob{apiJob{Job: j, Result: result}, node})
	return rec.Body.Bytes()
}

// oddWorkers builds n workers whose attribute names and values hold the
// characters encoding/json escapes (<, >, &, ", \, U+2028, U+2029, a
// tab) and non-ASCII text.
func oddWorkers(t testing.TB, n int) *dataset.Dataset {
	t.Helper()
	schema := &dataset.Schema{
		Protected: []dataset.Attribute{
			dataset.Cat(`Gen<d>er&"\`, "Fe\u2028male", `M"a\le`, "<non-binary>&", "☃"),
			dataset.Cat("Länd\u2029", "Ελλάδα", "日本", "Côte d’Ivoire", "tab\there"),
			dataset.Num("Âge", 18, 68, 4),
		},
		Observed: []dataset.Attribute{dataset.Num("Skill", 0, 1, 1)},
	}
	b := dataset.NewBuilder(schema)
	for i := 0; i < n; i++ {
		g, l := i%4, (i*7/3)%4
		b.Add(fmt.Sprintf("w%d", i), map[string]any{
			schema.Protected[0].Name: schema.Protected[0].Values[g],
			schema.Protected[1].Name: schema.Protected[1].Values[l],
			"Âge":                    float64(18 + (i*13)%51),
		}, map[string]any{"Skill": float64((i*37+g*11+l*5)%101) / 100})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d (%v): %s", url, resp.StatusCode, err, body)
	}
	return body
}

// TestJobBodiesMatchOracle compares whole job bodies with the bodies the
// JSON-result path wrote: GET /v1/jobs/{id} standalone, on the clustered
// node that holds the job, on a peer that fetches it from there, and the
// 200 a resubmission gets. The audits cover constraint conjunctions,
// named unions, a p-value, and names and values that JSON escapes.
// (No job yields the root ALL alone; TestResultRecordMatchesOracle
// covers it.)
func TestJobBodiesMatchOracle(t *testing.T) {
	a, tsA := startNode(t)
	b, tsB := startNode(t)
	for _, s := range []*Server{a, b} {
		ds, err := simulate.PaperWorkers(1500, 42)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutDataset("paper", ds); err != nil {
			t.Fatal(err)
		}
		if err := s.PutDataset("odd<&>\u2028", oddWorkers(t, 900)); err != nil {
			t.Fatal(err)
		}
	}
	paper := map[string]float64{"LanguageTest": 0.6, "ApprovalRate": 0.4}
	odd := map[string]float64{"Skill": 1}
	specs := []map[string]any{
		{"dataset": "paper", "algorithm": "balanced", "weights": paper},
		{"dataset": "paper", "algorithm": "all-attributes", "weights": paper},
		{"dataset": "paper", "algorithm": "unbalanced", "weights": paper, "seed": 3},
		{"dataset": "paper", "algorithm": "exhaustive", "weights": paper, "attributes": []string{"Gender", "Language"}},
		{"dataset": "paper", "algorithm": "exhaustive-cells", "weights": paper, "attributes": []string{"Gender", "Language"}},
		{"dataset": "paper", "algorithm": "balanced", "weights": paper, "significance_rounds": 20},
		{"dataset": "odd<&>\u2028", "algorithm": "all-attributes", "weights": odd},
		{"dataset": "odd<&>\u2028", "algorithm": "unbalanced", "weights": odd, "significance_rounds": 10},
		{"dataset": "odd<&>\u2028", "algorithm": "exhaustive-cells", "weights": odd, "attributes": []string{`Gen<d>er&"\`}},
	}
	type done struct {
		job  jobs.Job
		want []byte // the oracle's JSON result
		spec map[string]any
	}
	var ran []done
	labels := map[string]bool{}
	for _, spec := range specs {
		j := waitJobHTTP(t, tsA.URL, postJobDirect(t, tsA.URL, spec).ID, jobs.StateDone)
		job, _ := a.Jobs().Get(j.ID)
		want, err := a.oracleExec(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		var res jobResult
		if err := json.Unmarshal(want, &res); err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Partitions {
			labels[p.Label] = true
		}
		job.Result = nil
		ran = append(ran, done{job, want, spec})
		if got, want := getBody(t, tsA.URL+"/v1/jobs/"+job.ID), oracleBody(job, want, ""); !bytes.Equal(got, want) {
			t.Fatalf("standalone GET %v:\n%s\noracle\n%s", spec, got, want)
		}
		resp, got := postJSON(t, tsA.URL+"/v1/jobs", spec)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, oracleBody(job, want, "")) {
			t.Fatalf("resubmit %v = %d:\n%s\noracle\n%s", spec, resp.StatusCode, got, oracleBody(job, want, ""))
		}
	}
	for _, want := range []string{"+c", "Fe\u2028male", "Ελλάδα", `Gen<d>er&"\=M"a\le`, "∧"} {
		found := false
		for l := range labels {
			found = found || strings.Contains(l, want)
		}
		if !found {
			t.Errorf("no label holds %q", want)
		}
	}

	formCluster(t, []*Server{a, b}, []string{tsA.URL, tsB.URL}, nil)
	t.Cleanup(func() { a.Cluster().Close(); b.Cluster().Close() })
	for _, d := range ran {
		want := oracleBody(d.job, d.want, "node-a")
		if got := getBody(t, tsA.URL+"/v1/jobs/"+d.job.ID); !bytes.Equal(got, want) {
			t.Fatalf("clustered GET %v:\n%s\noracle\n%s", d.spec, got, want)
		}
		if got := getBody(t, tsB.URL+"/v1/jobs/"+d.job.ID); !bytes.Equal(got, want) {
			t.Fatalf("GET via peer %v:\n%s\noracle\n%s", d.spec, got, want)
		}
	}

	// A record renders on its own: deleting its dataset changes nothing.
	req, _ := http.NewRequest(http.MethodDelete, tsA.URL+"/v1/datasets/"+url.PathEscape("odd<&>\u2028"), nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		t.Fatalf("delete dataset = %d", resp.StatusCode)
	}
	last := ran[len(ran)-1]
	if got, want := getBody(t, tsA.URL+"/v1/jobs/"+last.job.ID), oracleBody(last.job, last.want, "node-a"); !bytes.Equal(got, want) {
		t.Fatalf("GET after its dataset was deleted:\n%s\noracle\n%s", got, want)
	}
}
