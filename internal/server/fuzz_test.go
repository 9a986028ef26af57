package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fairrank/internal/cluster"
	"fairrank/internal/core"
	"fairrank/internal/drift"
	"fairrank/internal/jobs"
	"fairrank/internal/simulate"
	"fairrank/internal/store"
)

// fuzzSrv is the shared fixture behind FuzzRankRequest: fuzz workers are
// separate processes, so each builds one small server on first use — a
// biased population, one posted task, one monitor, a peerless cluster
// layer (so the peer-protocol routes decode their bodies) and a job
// executor that does no engine work.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
	fuzzErr  error
)

func fuzzServer() (*Server, error) {
	fuzzOnce.Do(func() { fuzzSrv, fuzzErr = newFuzzServer() })
	return fuzzSrv, fuzzErr
}

func newFuzzServer() (*Server, error) {
	dir, err := os.MkdirTemp("", "fairrank-fuzz-*")
	if err != nil {
		return nil, err
	}
	db, err := store.Open(filepath.Join(dir, "fuzz.db"), store.Options{})
	if err != nil {
		return nil, err
	}
	noop := func(jobs.Executor) jobs.Executor {
		return func(context.Context, jobs.Job, func(core.TraceStep)) ([]byte, error) {
			return []byte(`{}`), nil
		}
	}
	s, err := New(db, func(s *Server) { s.jobExecWrap = noop })
	if err != nil {
		return nil, err
	}
	ds, err := simulate.SkewedWorkers(80, 7, simulate.Options{
		SkillBias: 10, BiasAttr: "Language", BiasValue: "English",
	})
	if err != nil {
		return nil, err
	}
	if err := s.PutDataset("fuzz", ds); err != nil {
		return nil, err
	}
	raw, err := json.Marshal(taskSpec{
		ID: "fuzz-task", Title: "fuzz", Dataset: "fuzz",
		Weights: map[string]float64{"LanguageTest": 1},
	})
	if err != nil {
		return nil, err
	}
	if err := s.db.Put(bucketTasks, "fuzz-task", raw); err != nil {
		return nil, err
	}
	spec := drift.Spec{ID: "fuzz-mon", Dataset: "fuzz", Attributes: []string{"Gender"},
		Weights: map[string]float64{"LanguageTest": 1}}
	w, err := drift.NewWatch(ds.Schema(), spec)
	if err != nil {
		return nil, err
	}
	if err := drift.SeedDataset(w, ds, nil); err != nil {
		return nil, err
	}
	s.monitors[spec.ID] = &serverMonitor{watch: w, hub: drift.NewHub()}
	// No peers: the cluster layer never dials out.
	if err := s.EnableCluster(cluster.Config{Self: "http://127.0.0.1:1", NodeID: "fuzz"}); err != nil {
		return nil, err
	}
	return s, nil
}

// fuzzRoutes are the JSON POST routes FuzzRankRequest drives, by index.
// Path values resolve to the fixture's monitor ({id}) and a fresh upload
// name ({name}). POST /v1/cluster/hydrate is left out: a body it accepts
// makes the handler dial the peer URL the fuzzer wrote.
var fuzzRoutes = []struct {
	path  string
	serve func(*Server, http.ResponseWriter, *http.Request)
}{
	{"/v1/rank", (*Server).handleRankPost},
	{"/v1/tasks", (*Server).handlePostTask},
	{"/v1/jobs", (*Server).handleSubmitJob},
	{"/v1/monitors", (*Server).handleCreateMonitor},
	{"/v1/monitors/{id}/events", (*Server).handleMonitorEvents},
	{"/v1/repair", (*Server).handleRepair},
	{"/v1/explain", (*Server).handleExplain},
	{"/v1/datasets/{name}/uploads", (*Server).handleCreateUpload},
	{"/v1/cluster/steal", (*Server).handleClusterSteal},
	{"/v1/cluster/ack", (*Server).handleClusterAck},
}

// FuzzRankRequest drives the handler of every JSON POST route directly —
// below the withRecovery middleware, so any panic surfaces as a crash —
// with a route index and an arbitrary body. (The name predates the
// widening past POST /v1/rank; it stays so its corpus keeps its home.)
// The contract for every input: no panic, and a well-formed JSON
// response — a JSON value on 2xx (a ranking with consecutive ranks on
// the rank route), a non-empty error message otherwise. A 2xx with an
// empty or truncated body (the classic encode-after-WriteHeader failure,
// e.g. an unencodable +Inf sneaking into a diagnostic field) fails here.
func FuzzRankRequest(f *testing.F) {
	for _, body := range []string{
		`{"task":"fuzz-task","k":5}`,
		`{"task":"fuzz-task","k":10,"algorithm":"fair-topk","attribute":"Language"}`,
		`{"task":"fuzz-task","k":10,"algorithm":"fair-topk","attribute":"Language","params":{"alpha":0.25},"audit":true}`,
		`{"task":"fuzz-task","k":8,"algorithm":"det-greedy","attribute":"Gender"}`,
		`{"task":"fuzz-task","k":8,"algorithm":"det-cons","attribute":"Country"}`,
		`{"task":"fuzz-task","k":8,"algorithm":"det-relaxed","attribute":"Ethnicity"}`,
		`{"task":"fuzz-task","k":200,"algorithm":"exposure-parity","attribute":"Language","params":{"epsilon":0.5}}`,
		`{"task":"fuzz-task","q":"translator","k":3}`,
		`{"task":"fuzz-task","k":-1}`,
		`{"task":"nope"}`,
		`{"task":"fuzz-task","algorithm":"nope","attribute":"Language"}`,
		`{"task":"fuzz-task","algorithm":"fair-topk","attribute":"LanguageTest"}`,
		`{"task":"fuzz-task","algorithm":"fair-topk","attribute":"Language","params":{"alpha":99}}`,
		`null`,
		`{`,
		``,
		`{"task":"fuzz-task","k":1e3}`,
	} {
		f.Add(uint8(0), []byte(body))
	}
	// One valid body per other route, plain and with a trailing brace.
	for i, body := range []string{
		`{"id":"t","title":"x","dataset":"fuzz","weights":{"LanguageTest":1}}`,
		`{"dataset":"fuzz","weights":{"LanguageTest":1},"significance_rounds":5}`,
		`{"id":"m","dataset":"fuzz","attributes":["Gender"],"weights":{"LanguageTest":1},"window":64}`,
		`{"events":[{"type":"join","worker":"new-1","protected":{"Gender":"Female"},"score":0.5},{"type":"leave","worker":"new-1"}]}`,
		`{"dataset":"fuzz","weights":{"LanguageTest":1},"group_by":["Gender"],"amount":1}`,
		`{"dataset":"fuzz","weights":{"LanguageTest":1}}`,
		`{"size":1024}`,
		`{"thief":"peer","max":2,"datasets":["fuzz"]}`,
		`{"thief":"peer","tokens":["t"]}`,
	} {
		f.Add(uint8(i+1), []byte(body))
		f.Add(uint8(i+1), []byte(body+`}`))
	}
	// A page past maxPageSize, added last so the seeds above keep their
	// numbers.
	f.Add(uint8(0), []byte(`{"task":"fuzz-task","k":1001,"algorithm":"fair-topk","attribute":"Language"}`))
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		s, err := fuzzServer()
		if err != nil {
			t.Fatalf("fixture: %v", err)
		}
		rt := fuzzRoutes[int(route)%len(fuzzRoutes)]
		req := httptest.NewRequest("POST", rt.path, bytes.NewReader(body))
		req.SetPathValue("id", "fuzz-mon")
		req.SetPathValue("name", "fuzz-upload")
		rec := httptest.NewRecorder()
		rt.serve(s, rec, req)
		resp := rec.Result()
		defer resp.Body.Close()
		if resp.StatusCode < 300 {
			var out any
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatalf("%s: %d with undecodable body %q: %v\ninput: %q",
					rt.path, resp.StatusCode, rec.Body.Bytes(), err, body)
			}
			if rt.path != "/v1/rank" {
				return
			}
			var page rankPostResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
				t.Fatalf("rank page %q: %v\ninput: %q", rec.Body.Bytes(), err, body)
			}
			for i, e := range page.Ranking {
				if e.Rank != i+1 {
					t.Fatalf("position %d has rank %d\ninput: %q", i, e.Rank, body)
				}
			}
			return
		}
		var apiErr apiError
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Fatalf("%s: status %d with undecodable body %q: %v\ninput: %q",
				rt.path, resp.StatusCode, rec.Body.Bytes(), err, body)
		}
		if apiErr.Error == "" {
			t.Fatalf("%s: status %d with empty error\ninput: %q", rt.path, resp.StatusCode, body)
		}
	})
}
