package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"sort"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/drift"
	"fairrank/internal/marketplace"
	"fairrank/internal/scoring"
)

// auditResult mirrors the stored result of an audit job.
type auditResult struct {
	Dataset    string  `json:"dataset,omitempty"`
	Snapshot   string  `json:"snapshot,omitempty"`
	Algorithm  string  `json:"algorithm"`
	Unfairness float64 `json:"unfairness"`
	Partitions []struct {
		Label string `json:"label"`
		Size  int    `json:"size"`
	} `json:"partitions"`
}

// refRun is an in-process core.Run of one fresh spec.
type refRun struct {
	spec  int
	res   *core.Result
	stats core.RunStats
}

// coreSpec builds the core.Spec a fairserve job executes for spec.
func coreSpec(ds *dataset.Dataset, algorithm string, weights map[string]float64) (core.Spec, error) {
	f, err := scoring.NewLinear("job-fn", weights)
	if err != nil {
		return core.Spec{}, err
	}
	return core.Spec{Algorithm: algorithm, Dataset: ds, Func: f}, nil
}

// expectedResult renders an in-process result the way the job executor
// stores it: partitions by label, sorted.
func expectedResult(ds *dataset.Dataset, res *core.Result) auditResult {
	out := auditResult{Dataset: datasetName, Algorithm: res.Algorithm, Unfairness: res.Unfairness}
	for _, p := range res.Partitioning.Parts {
		out.Partitions = append(out.Partitions, struct {
			Label string `json:"label"`
			Size  int    `json:"size"`
		}{p.Label(ds.Schema()), p.Size()})
	}
	sort.Slice(out.Partitions, func(i, k int) bool { return out.Partitions[i].Label < out.Partitions[k].Label })
	return out
}

// checkAudits compares the server's result for every kept spec (the
// first of each algorithm, plus every traced one) bit for bit with an
// in-process core.Run of the same spec. On cluster-7300 this is the
// single-node result, since a lone node runs exactly core.Run.
func (b *bench) checkAudits() error {
	refs := map[int]*core.Result{}
	for _, r := range b.audit.refs {
		refs[r.spec] = r.res
	}
	idx := make([]int, 0, len(b.audit.results))
	for i := range b.audit.results {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		spec := b.rq.specs[i]
		res := refs[i]
		if res == nil {
			cs, err := coreSpec(b.pop.ds, spec.algorithm, spec.weights)
			if err != nil {
				return err
			}
			if res, err = core.Run(context.Background(), cs); err != nil {
				return err
			}
		}
		var got auditResult
		if err := json.Unmarshal(b.audit.results[i], &got); err != nil {
			b.checkFailed("spec %d: result does not decode: %v", i, err)
			continue
		}
		want := expectedResult(b.pop.ds, res)
		if math.Float64bits(got.Unfairness) != math.Float64bits(want.Unfairness) || !reflect.DeepEqual(got, want) {
			b.checkFailed("spec %d (%s): server unfairness %v with %d parts, in-process %v with %d parts",
				i, spec.algorithm, got.Unfairness, len(got.Partitions), want.Unfairness, len(want.Partitions))
		}
	}
	return nil
}

// market is a marketplace over ds with the benchmark task posted, as the
// rank handler builds it per request.
func market(ds *dataset.Dataset, weights map[string]float64) (*marketplace.Marketplace, error) {
	m, err := marketplace.New(ds)
	if err != nil {
		return nil, err
	}
	return m, m.PostTask(marketplace.Task{ID: taskID, Title: "benchmark task", Weights: weights})
}

// seededWatch builds the monitor the server creates for spec: every row
// joins, scored by the spec's weights, through Watch.Seed.
func seededWatch(ds *dataset.Dataset, spec drift.Spec) (*drift.Watch, error) {
	w, err := drift.NewWatch(ds.Schema(), spec)
	if err != nil {
		return nil, err
	}
	f, err := scoring.NewLinear(spec.ID, spec.Weights)
	if err != nil {
		return nil, err
	}
	attrs := make([]int, len(spec.Attributes))
	for i, name := range spec.Attributes {
		attrs[i] = ds.Schema().ProtectedIndex(name)
	}
	for i := 0; i < ds.N(); i++ {
		prot := make(map[string]any, len(attrs))
		for _, a := range attrs {
			def := ds.Schema().Protected[a]
			if def.Kind == dataset.Categorical {
				prot[def.Name] = ds.ProtectedLabel(a, i)
			} else {
				prot[def.Name] = ds.RawProtected(a, i)
			}
		}
		if err := w.Seed(drift.Event{Type: drift.EventJoin, Worker: ds.ID(i), Protected: prot, Score: f.Score(ds, i)}); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// applyAll applies evs in order and counts the alarm transitions.
func applyAll(w *drift.Watch, evs []drift.Event) (int, error) {
	alarms := 0
	for _, ev := range evs {
		a, err := w.Apply(ev)
		if err != nil {
			return alarms, err
		}
		alarms += len(a)
	}
	return alarms, nil
}

// checkServe compares every plain page with RankBy's top k (RankQuery's
// for pages with a q filter), and the monitor's final status and alarm
// transitions with an in-process watch fed the same seed and events.
func (b *bench) checkServe() error {
	ds := b.pop.ds
	m, err := market(ds, b.rq.monitor.Weights)
	if err != nil {
		return err
	}
	f, err := m.ScoringFunc(taskID)
	if err != nil {
		return err
	}
	for q, pages := range b.serve.plain {
		var want []marketplace.RankedWorker
		if q == "" {
			want = marketplace.RankBy(ds, f, pageSize)
		} else if want, err = m.RankQuery(taskID, q, pageSize); err != nil {
			return err
		}
		ids := make([]string, len(want))
		for j, rw := range want {
			ids[j] = ds.ID(rw.Worker)
		}
		for _, got := range pages {
			if !reflect.DeepEqual(got, ids) {
				b.checkFailed("plain page for q=%q differs from the in-process ranking", q)
			}
		}
	}

	if err := b.catchUp(b.serve.sent); err != nil {
		return err
	}
	var got drift.Status
	if err := b.nodes[0].doJSON("GET", "/v1/monitors/"+monitorID, nil, http.StatusOK, &got); err != nil {
		return err
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		return err
	}
	wantJSON, err := json.Marshal(b.serve.watch.Status())
	if err != nil {
		return fmt.Errorf("in-process monitor status: %w", err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		b.checkFailed("monitor status differs from the in-process watch:\n server %s\n local  %s", gotJSON, wantJSON)
	}
	if b.serve.alarms != b.serve.refAlarms {
		b.checkFailed("monitor reported %d alarm transitions, in-process watch %d", b.serve.alarms, b.serve.refAlarms)
	}
	return nil
}
