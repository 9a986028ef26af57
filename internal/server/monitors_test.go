package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fairrank/internal/drift"
	"fairrank/internal/simulate/driftsim"
	"fairrank/internal/store"
)

// e2eMonitorSpec is the 3-rule monitor the e2e scenario runs against:
// driftsim's stock audit (absolute backstop, slope detector, and the
// window-vs-baseline drift detector) re-pointed at the uploaded dataset.
func e2eMonitorSpec(id, ds string) drift.Spec {
	spec := driftsim.DefaultMonitorSpec(id, "Gender", 20)
	spec.Dataset = ds
	return spec
}

func createMonitor(t *testing.T, ts *httptest.Server, spec drift.Spec) monitorStatus {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/monitors", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create monitor: status %d: %s", resp.StatusCode, body)
	}
	var st monitorStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// httpSink drives a server-side monitor through driftsim.MonitorSink, so
// the exact same scenario that exercises an in-process watch exercises
// the HTTP surface.
type httpSink struct {
	t    *testing.T
	base string
	id   string
}

func (s *httpSink) Send(events []drift.Event) ([]drift.AlarmEvent, error) {
	resp, body := postJSON(s.t, s.base+"/v1/monitors/"+s.id+"/events", map[string]any{"events": events})
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: status %d: %s", resp.StatusCode, body)
	}
	var out monitorEventsResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, err
	}
	if out.Applied != len(events) {
		return nil, fmt.Errorf("applied %d of %d", out.Applied, len(events))
	}
	return out.Alarms, nil
}

func (s *httpSink) SealBaseline() error {
	resp, body := postJSON(s.t, s.base+"/v1/monitors/"+s.id+"/baseline", nil)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("baseline: status %d: %s", resp.StatusCode, body)
	}
	return nil
}

func (s *httpSink) Unfairness() (float64, error) {
	var st monitorStatus
	if code := getJSON(s.t, s.base+"/v1/monitors/"+s.id, &st); code != http.StatusOK {
		return 0, fmt.Errorf("status %d", code)
	}
	if st.Window == nil {
		return 0, fmt.Errorf("monitor has no window estimator")
	}
	return st.Window.Unfairness, nil
}

func getMonitor(t *testing.T, base, id string) monitorStatus {
	t.Helper()
	var st monitorStatus
	if code := getJSON(t, base+"/v1/monitors/"+id, &st); code != http.StatusOK {
		t.Fatalf("get monitor: status %d", code)
	}
	return st
}

func alarmByRule(t *testing.T, st monitorStatus, rule string) drift.AlarmStatus {
	t.Helper()
	for _, a := range st.Alarms {
		if a.Rule == rule {
			return a
		}
	}
	t.Fatalf("no alarm %q in status %+v", rule, st.Alarms)
	return drift.AlarmStatus{}
}

// pageBatch builds one window-filling batch of joins: count/2 per gender,
// every worker id unique under prefix, each gender at a fixed score.
// With the default 10 bins a 0.1 score gap is one histogram bin — EMD
// 0.1 per bin of separation once the batch owns the whole window.
func pageBatch(prefix string, count int, maleScore, femaleScore float64) []drift.Event {
	events := make([]drift.Event, 0, count)
	for i := 0; i < count/2; i++ {
		events = append(events,
			drift.Event{Type: drift.EventJoin, Worker: fmt.Sprintf("%s-m%d", prefix, i),
				Protected: map[string]any{"Gender": "Male"}, Score: maleScore},
			drift.Event{Type: drift.EventJoin, Worker: fmt.Sprintf("%s-f%d", prefix, i),
				Protected: map[string]any{"Gender": "Female"}, Score: femaleScore},
		)
	}
	return events
}

func driftTransitions(alarms []drift.AlarmEvent) (fired, cleared int) {
	for _, a := range alarms {
		if a.RuleType != drift.RuleBaseline {
			continue
		}
		switch a.Type {
		case drift.AlarmFired:
			fired++
		case drift.AlarmCleared:
			cleared++
		}
	}
	return fired, cleared
}

func TestMonitorLifecycle(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "workers", 120)

	st := createMonitor(t, ts, e2eMonitorSpec("audit-1", "workers"))
	if st.Dataset != "workers" || st.ID != "audit-1" {
		t.Fatalf("created status = %+v", st)
	}
	// The dataset seed fills the estimators but is not an observed event.
	if st.Events != 0 {
		t.Fatalf("events after seed = %d, want 0", st.Events)
	}
	if st.Total.Workers != 120 {
		t.Fatalf("total workers = %d, want the full seeded population", st.Total.Workers)
	}
	if st.Window == nil || st.Window.Workers != 80 {
		t.Fatalf("window = %+v, want the last 80 seed rows", st.Window)
	}
	if len(st.Alarms) != 3 {
		t.Fatalf("alarms = %+v, want 3 rules", st.Alarms)
	}

	// Duplicate id is a conflict.
	if resp, _ := postJSON(t, ts.URL+"/v1/monitors", e2eMonitorSpec("audit-1", "workers")); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: status %d", resp.StatusCode)
	}

	var list []monitorStatus
	if code := getJSON(t, ts.URL+"/v1/monitors", &list); code != 200 || len(list) != 1 || list[0].ID != "audit-1" {
		t.Fatalf("list = %d %+v", code, list)
	}
	getMonitor(t, ts.URL, "audit-1")

	// The monitor holds a reference: the dataset cannot be deleted first.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/workers", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusConflict {
		t.Fatalf("dataset delete under monitor: %v %d", err, resp.StatusCode)
	}

	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/monitors/audit-1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete monitor: %v %d", err, resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/v1/monitors/audit-1", nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", code)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/monitors/audit-1", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: %v %d", err, resp.StatusCode)
	}
	// Monitor gone — the dataset is deletable again.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/workers", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("dataset delete after monitor removed: %v %d", err, resp.StatusCode)
	}
}

// TestMonitorSeedOutsideLock holds a monitor create inside its dataset
// seed and checks that the server keeps answering meanwhile: a dataset
// lookup, another create of the same id and a dataset delete all go
// through, and the held create then answers 409 for the taken id, or
// 404 for the deleted dataset.
func TestMonitorSeedOutsideLock(t *testing.T) {
	db, err := store.Open(filepath.Join(t.TempDir(), "srv.db"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	var hold atomic.Bool
	seeding, release := make(chan struct{}), make(chan struct{})
	s, err := New(db, func(s *Server) {
		s.seedEach = func(n int) {
			if n == 1 && hold.CompareAndSwap(true, false) {
				seeding <- struct{}{}
				<-release
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { // before ts.Close, which waits for a held create
		select {
		case release <- struct{}{}:
		default:
		}
	})
	uploadDataset(t, ts, "workers", 120)
	client := &http.Client{Timeout: 10 * time.Second}

	// heldCreate starts a create of id that stops after its first seeded
	// row, and returns the channel its status arrives on.
	heldCreate := func(id string) <-chan int {
		raw, err := json.Marshal(e2eMonitorSpec(id, "workers"))
		if err != nil {
			t.Fatal(err)
		}
		hold.Store(true)
		status := make(chan int, 1)
		go func() {
			resp, err := client.Post(ts.URL+"/v1/monitors", "application/json", bytes.NewReader(raw))
			if err != nil {
				status <- -1
				return
			}
			resp.Body.Close()
			status <- resp.StatusCode
		}()
		<-seeding
		return status
	}
	do := func(method, path string, want int) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s while a create seeds: %v", method, path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s %s while a create seeds: status %d, want %d", method, path, resp.StatusCode, want)
		}
	}

	first := heldCreate("held")
	do(http.MethodGet, "/v1/datasets", http.StatusOK)
	createMonitor(t, ts, e2eMonitorSpec("held", "workers"))
	select {
	case code := <-first:
		t.Fatalf("held create answered %d before its seed was released", code)
	default:
	}
	release <- struct{}{}
	if code := <-first; code != http.StatusConflict {
		t.Fatalf("held create after another took its id: status %d, want 409", code)
	}

	second := heldCreate("orphan")
	do(http.MethodDelete, "/v1/monitors/held", http.StatusNoContent)
	do(http.MethodDelete, "/v1/datasets/workers", http.StatusNoContent)
	release <- struct{}{}
	if code := <-second; code != http.StatusNotFound {
		t.Fatalf("held create after its dataset was deleted: status %d, want 404", code)
	}
	do(http.MethodGet, "/v1/monitors/orphan", http.StatusNotFound)
}

func TestMonitorCreateValidation(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "workers", 60)

	cases := []struct {
		name string
		body any
		want int
	}{
		{"unknown dataset", e2eMonitorSpec("m1", "nope"), http.StatusNotFound},
		{"bad attribute", func() drift.Spec {
			s := e2eMonitorSpec("m2", "workers")
			s.Attributes = []string{"NotAnAttr"}
			return s
		}(), http.StatusBadRequest},
		{"bad id", func() drift.Spec {
			s := e2eMonitorSpec("UPPER CASE", "workers")
			return s
		}(), http.StatusBadRequest},
		{"unknown field", map[string]any{
			"id": "m3", "dataset": "workers", "attributes": []string{"Gender"},
			"weights": map[string]float64{"ApprovalRate": 1}, "surprise": true,
		}, http.StatusBadRequest},
		{"no weights", map[string]any{
			"id": "m4", "dataset": "workers", "attributes": []string{"Gender"},
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/monitors", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d (want %d): %s", tc.name, resp.StatusCode, tc.want, body)
		}
	}
}

func TestMonitorEventIngest(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "workers", 60)
	createMonitor(t, ts, e2eMonitorSpec("ingest", "workers"))
	sink := &httpSink{t: t, base: ts.URL, id: "ingest"}

	alarms, err := sink.Send([]drift.Event{
		{Type: drift.EventJoin, Worker: "w1", Protected: map[string]any{"Gender": "Female"}, Score: 0.7},
		{Type: drift.EventRescore, Worker: "w1", Score: 0.4},
		{Type: drift.EventLeave, Worker: "w1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) != 0 {
		t.Fatalf("unexpected transitions: %+v", alarms)
	}
	if st := getMonitor(t, ts.URL, "ingest"); st.Events != 3 {
		t.Fatalf("events = %d, want 3", st.Events)
	}

	// A bad event mid-batch: everything before it sticks, the response
	// names both the failing index and the applied count.
	resp, body := postJSON(t, ts.URL+"/v1/monitors/ingest/events", map[string]any{"events": []drift.Event{
		{Type: drift.EventJoin, Worker: "w2", Protected: map[string]any{"Gender": "Male"}, Score: 0.5},
		{Type: drift.EventRescore, Worker: "no-such-worker", Score: 0.9},
	}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "event 1 (after 1 applied)") {
		t.Fatalf("bad batch error = %s", body)
	}
	if st := getMonitor(t, ts.URL, "ingest"); st.Events != 4 {
		t.Fatalf("events after partial batch = %d, want 4", st.Events)
	}

	// Unknown monitor.
	resp, _ = postJSON(t, ts.URL+"/v1/monitors/ghost/events", map[string]any{"events": []drift.Event{}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown monitor: status %d", resp.StatusCode)
	}
}

// TestMonitorPartialBatchPersistsAlarms: when a batch fails part way, the
// events before the failure stay applied and their alarm transitions are
// published, so the alarm state they changed must be durable too — a
// restart must come back with the alarm the applied prefix fired.
func TestMonitorPartialBatchPersistsAlarms(t *testing.T) {
	_, ts, path := newTestServer(t)
	uploadDataset(t, ts, "workers", 60)
	spec := e2eMonitorSpec("partial", "workers")
	spec.Rules = []drift.RuleSpec{{Name: "any", Type: drift.RuleThreshold, Source: drift.SourceTotal, Threshold: 1e-9}}
	createMonitor(t, ts, spec)

	resp, body := postJSON(t, ts.URL+"/v1/monitors/partial/events", map[string]any{"events": []drift.Event{
		{Type: drift.EventJoin, Worker: "fresh", Protected: map[string]any{"Gender": "Female"}, Score: 0.5},
		{Type: drift.EventRescore, Worker: "no-such-worker", Score: 0.9},
	}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "event 1 (after 1 applied)") {
		t.Fatalf("partial batch: status %d: %s", resp.StatusCode, body)
	}
	if a := alarmByRule(t, getMonitor(t, ts.URL, "partial"), "any"); !a.Active || a.Fired != 1 {
		t.Fatalf("alarm after the applied prefix = %+v, want fired once", a)
	}

	ts.Close()
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
	if a := alarmByRule(t, getMonitor(t, ts2.URL, "partial"), "any"); !a.Active || a.Fired != 1 {
		t.Fatalf("alarm after restart = %+v, want the fire the applied prefix persisted", a)
	}
}

// TestMonitorDriftE2E is the acceptance scenario end to end over HTTP: a
// served-page drift scenario feeds a 3-rule monitor through the REST
// surface, the window-vs-baseline rule fires exactly once on the shift
// and latches (hysteresis), a controlled cool-down clears it exactly
// once, a re-fire is provoked and then held through the hysteresis band,
// and finally the server restarts from its WAL without losing the active
// alarm or re-firing it.
func TestMonitorDriftE2E(t *testing.T) {
	_, ts, path := newTestServer(t)
	uploadDataset(t, ts, "workers", 500)
	createMonitor(t, ts, e2eMonitorSpec("drift-e2e", "workers"))
	sink := &httpSink{t: t, base: ts.URL, id: "drift-e2e"}

	// Phase 1 — the drift scenario, served over HTTP. Group-aware
	// det-greedy keeps the drifted group on the page, so the monitor sees
	// the divergence and the drift rule fires exactly once, then stays
	// latched on the plateau.
	scn := driftsim.Spec{
		Seed:    1,
		Shift:   0.25,
		Spread:  0.5,
		Monitor: e2eMonitorSpec("drift-e2e", "workers"),
	}
	run, err := driftsim.RunOne(scn, "det-greedy", sink)
	if err != nil {
		t.Fatal(err)
	}
	shiftAt := 60 / 3 // withDefaults: Steps=60, ShiftAt=Steps/3
	if run.DetectionStep < shiftAt {
		t.Fatalf("detected at step %d, before the shift at %d", run.DetectionStep, shiftAt)
	}
	if fired, cleared := driftTransitions(run.Alarms); fired != 1 || cleared != 0 {
		t.Fatalf("scenario drift transitions fired=%d cleared=%d, want exactly one fire, latched", fired, cleared)
	}
	if run.Final < 0.1 {
		t.Fatalf("final windowed unfairness %v — drift plateau missing", run.Final)
	}
	st := getMonitor(t, ts.URL, "drift-e2e")
	if a := alarmByRule(t, st, "drift"); !a.Active || a.Fired != 1 {
		t.Fatalf("drift alarm after scenario = %+v, want active with 1 fire", a)
	}

	// Phase 2 — controlled clear: a window of identical scores drives the
	// estimate to 0, crossing the cleared level (limit minus hysteresis)
	// exactly once.
	alarms, err := sink.Send(pageBatch("cool", 80, 0.95, 0.95))
	if err != nil {
		t.Fatal(err)
	}
	if fired, cleared := driftTransitions(alarms); fired != 0 || cleared != 1 {
		t.Fatalf("cool-down transitions fired=%d cleared=%d, want exactly one clear", fired, cleared)
	}

	// Re-seal the baseline at the now-fair level so the next phases work
	// against a known zero.
	resp, body := postJSON(t, ts.URL+"/v1/monitors/drift-e2e/baseline", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-seal: status %d: %s", resp.StatusCode, body)
	}
	var sealed struct {
		Sealed map[string]float64 `json:"sealed"`
	}
	if err := json.Unmarshal(body, &sealed); err != nil {
		t.Fatal(err)
	}
	if v, ok := sealed.Sealed["drift"]; !ok || v > 1e-9 {
		t.Fatalf("re-sealed baseline = %v, want 0 over a uniform window", sealed.Sealed)
	}

	// Phase 3 — re-fire: a two-bin score gap makes the windowed EMD 0.2,
	// twice the rule's delta. Exactly one fire, no flapping.
	alarms, err = sink.Send(pageBatch("gap2", 80, 0.95, 0.75))
	if err != nil {
		t.Fatal(err)
	}
	if fired, cleared := driftTransitions(alarms); fired != 1 || cleared != 0 {
		t.Fatalf("re-fire transitions fired=%d cleared=%d, want exactly one fire", fired, cleared)
	}

	// Phase 4 — hysteresis: narrowing the gap to one bin drops the signal
	// to ~0.1 — at/below the firing limit but above the cleared level
	// (0.075) — so the alarm must stay latched with no transition at all.
	alarms, err = sink.Send(pageBatch("gap1", 80, 0.95, 0.85))
	if err != nil {
		t.Fatal(err)
	}
	if fired, cleared := driftTransitions(alarms); fired != 0 || cleared != 0 {
		t.Fatalf("hysteresis band transitions fired=%d cleared=%d, want none (latched)", fired, cleared)
	}
	st = getMonitor(t, ts.URL, "drift-e2e")
	if a := alarmByRule(t, st, "drift"); !a.Active || a.Fired != 2 {
		t.Fatalf("drift alarm before restart = %+v, want active with 2 fires", a)
	}
	preRestart := st

	// Phase 5 — restart over the same WAL. The revived monitor re-seeds
	// its estimators from the dataset snapshot without evaluating rules,
	// so the active alarm survives with its fired count intact.
	ts.Close()
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

	st = getMonitor(t, ts2.URL, "drift-e2e")
	a := alarmByRule(t, st, "drift")
	if !a.Active || a.Fired != 2 {
		t.Fatalf("drift alarm after restart = %+v, want active with 2 fires", a)
	}
	if pre := alarmByRule(t, preRestart, "drift"); a.Baseline != pre.Baseline {
		t.Fatalf("baseline drifted across restart: %v != %v", a.Baseline, pre.Baseline)
	}
	if st.Window == nil || st.Window.Workers != 80 {
		t.Fatalf("window after restart = %+v, want re-seeded from the dataset", st.Window)
	}

	// Feeding the same high-signal traffic after the restart must NOT
	// re-fire: the alarm is already active, and the rule's warmup
	// re-applies to the first live events.
	sink2 := &httpSink{t: t, base: ts2.URL, id: "drift-e2e"}
	alarms, err = sink2.Send(pageBatch("post", 80, 0.95, 0.75))
	if err != nil {
		t.Fatal(err)
	}
	if fired, cleared := driftTransitions(alarms); fired != 0 || cleared != 0 {
		t.Fatalf("post-restart transitions fired=%d cleared=%d, want none", fired, cleared)
	}
	st = getMonitor(t, ts2.URL, "drift-e2e")
	if a := alarmByRule(t, st, "drift"); !a.Active || a.Fired != 2 {
		t.Fatalf("drift alarm after post-restart traffic = %+v, want unchanged", a)
	}
}

// TestMonitorEventStream verifies the SSE surface: replayed transitions
// arrive framed with ids, and a live transition lands on an already-open
// stream.
func TestMonitorEventStream(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "workers", 60)
	spec := drift.Spec{
		ID: "sse", Dataset: "workers", Attributes: []string{"Gender"},
		Weights: map[string]float64{"ApprovalRate": 1}, Window: 40,
		Rules: []drift.RuleSpec{
			{Name: "gap", Type: drift.RuleThreshold, Threshold: 0.2, Hysteresis: 0.2},
		},
	}
	createMonitor(t, ts, spec)
	sink := &httpSink{t: t, base: ts.URL, id: "sse"}

	// Trip the threshold: a four-bin gender gap across the whole window.
	alarms, err := sink.Send(pageBatch("a", 40, 0.95, 0.55))
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) != 1 || alarms[0].Type != drift.AlarmFired {
		t.Fatalf("threshold transitions = %+v, want one fire", alarms)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/monitors/sse/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// While the stream is open, produce a live clear.
	go func() {
		_, _ = sink.Send(pageBatch("b", 40, 0.95, 0.95))
	}()

	var got []drift.AlarmEvent
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev drift.AlarmEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		got = append(got, ev)
		if len(got) == 2 {
			break
		}
	}
	if len(got) != 2 {
		t.Fatalf("streamed %d events, want 2 (replayed fire + live clear): %v", len(got), sc.Err())
	}
	if got[0].Type != drift.AlarmFired || got[1].Type != drift.AlarmCleared {
		t.Fatalf("streamed sequence = %s, %s — want fired then cleared", got[0].Type, got[1].Type)
	}
	if got[0].Monitor != "sse" || got[1].Seq <= got[0].Seq {
		t.Fatalf("bad framing: %+v", got)
	}
}
