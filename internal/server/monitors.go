package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"fairrank/internal/drift"
)

// This file is the continuous-audit surface: named drift monitors
// attached to live datasets. A monitor is created from a drift.Spec,
// seeded with the dataset's current rows scored by the spec's linear
// weights (drift.SeedDataset, so its estimators start from the real
// population, not from empty), and then fed incrementally via POST
// .../events. Alarm transitions stream over SSE at GET .../events.
//
// Persistence contract: the WAL stores each monitor's spec and alarm
// states — NOT its event stream. On boot the watch is rebuilt, alarm
// states are restored FIRST, and the dataset snapshot is replayed as the
// seed. The seed goes through Watch.Seed — estimators only, no rule
// evaluation — so the re-seeding transient can neither lose an active
// alarm nor re-fire it, however large the dataset; on top of that each
// rule's warmup re-applies to the first live events (warmup counters are
// deliberately not persisted).

const bucketMonitors = "monitors"

// monitorRecord is the WAL value: everything needed to revive a monitor
// except its event history, which the estimators re-derive from the
// dataset seed plus future events.
type monitorRecord struct {
	Spec   drift.Spec         `json:"spec"`
	Alarms []drift.AlarmState `json:"alarms,omitempty"`
}

// serverMonitor is one live monitor: the watch, its alarm-event hub, and
// the mutex serializing event ingestion (drift.Watch is single-writer).
type serverMonitor struct {
	mu    sync.Mutex
	watch *drift.Watch
	hub   *drift.Hub
}

// persistMonitor writes the monitor's current spec + alarm states.
// Callers hold m.mu.
func (s *Server) persistMonitor(m *serverMonitor) error {
	raw, err := json.Marshal(monitorRecord{Spec: m.watch.Spec(), Alarms: m.watch.AlarmStates()})
	if err != nil {
		return err
	}
	return s.db.Put(bucketMonitors, m.watch.Spec().ID, raw)
}

// reloadMonitors revives every persisted monitor at boot. Runs after
// datasets reload; the dataset-delete guard keeps the reference valid.
func (s *Server) reloadMonitors() error {
	for _, id := range s.db.Keys(bucketMonitors) {
		raw, ok := s.db.Get(bucketMonitors, id)
		if !ok {
			continue
		}
		var rec monitorRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("monitor %q: %w", id, err)
		}
		ds, ok := s.datasets[rec.Spec.Dataset]
		if !ok {
			return fmt.Errorf("monitor %q: dataset %q missing", id, rec.Spec.Dataset)
		}
		w, err := drift.NewWatch(ds.Schema(), rec.Spec)
		if err != nil {
			return fmt.Errorf("monitor %q: %w", id, err)
		}
		w.SetMetrics(s.metrics)
		// Restore before seeding: active alarms stay active through the
		// seed replay, which goes through Watch.Seed and so cannot emit
		// transitions.
		w.RestoreAlarms(rec.Alarms)
		if err := drift.SeedDataset(w, ds, nil); err != nil {
			return fmt.Errorf("monitor %q: %w", id, err)
		}
		s.monitors[id] = &serverMonitor{watch: w, hub: drift.NewHub()}
	}
	s.syncMonitorGauge()
	return nil
}

func (s *Server) syncMonitorGauge() {
	s.metrics.Gauge(drift.MetricWatches).Set(float64(len(s.monitors)))
}

// monitorStatus is the wire shape of GET /v1/monitors[/{id}].
type monitorStatus struct {
	drift.Status
	Dataset string `json:"dataset"`
}

func (s *Server) handleCreateMonitor(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxSpecBody)
	if !ok {
		return
	}
	spec, err := drift.DecodeSpec(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Seed without the server lock: a seed is O(rows) and every dataset
	// lookup takes that lock. The checks are repeated under it below.
	s.mu.RLock()
	code, err := s.refuseMonitor(spec)
	ds := s.datasets[spec.Dataset]
	s.mu.RUnlock()
	if err != nil {
		writeErr(w, code, err)
		return
	}
	watch, err := drift.NewWatch(ds.Schema(), spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	watch.SetMetrics(s.metrics)
	if err := drift.SeedDataset(watch, ds, s.seedEach); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	m := &serverMonitor{watch: watch, hub: drift.NewHub()}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Another create may have taken the id meanwhile, or a delete the
	// dataset, which the delete guard allows while no monitor names it.
	if code, err := s.refuseMonitor(spec); err != nil {
		writeErr(w, code, err)
		return
	}
	if err := s.persistMonitor(m); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.monitors[spec.ID] = m
	s.syncMonitorGauge()
	writeJSON(w, http.StatusCreated, monitorStatus{Status: watch.Status(), Dataset: spec.Dataset})
}

// refuseMonitor returns the status and error that refuse a create of
// spec: 409 while a monitor holds its id, 404 while its dataset is
// missing. Callers hold s.mu.
func (s *Server) refuseMonitor(spec drift.Spec) (int, error) {
	if _, dup := s.monitors[spec.ID]; dup {
		return http.StatusConflict, fmt.Errorf("monitor %q already exists", spec.ID)
	}
	if _, ok := s.datasets[spec.Dataset]; !ok {
		return http.StatusNotFound, fmt.Errorf("dataset %q not found", spec.Dataset)
	}
	return 0, nil
}

func (s *Server) handleListMonitors(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	ids := make([]string, 0, len(s.monitors))
	for id := range s.monitors {
		ids = append(ids, id)
	}
	mons := make([]*serverMonitor, 0, len(ids))
	sort.Strings(ids)
	for _, id := range ids {
		mons = append(mons, s.monitors[id])
	}
	s.mu.RUnlock()
	out := make([]monitorStatus, len(mons))
	for i, m := range mons {
		m.mu.Lock()
		out[i] = monitorStatus{Status: m.watch.Status(), Dataset: m.watch.Spec().Dataset}
		m.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookupMonitor(id string) (*serverMonitor, bool) {
	s.mu.RLock()
	m, ok := s.monitors[id]
	s.mu.RUnlock()
	return m, ok
}

func (s *Server) handleGetMonitor(w http.ResponseWriter, r *http.Request) {
	m, ok := s.lookupMonitor(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("monitor %q not found", r.PathValue("id")))
		return
	}
	m.mu.Lock()
	st := monitorStatus{Status: m.watch.Status(), Dataset: m.watch.Spec().Dataset}
	m.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleDeleteMonitor(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	m, ok := s.monitors[id]
	if !ok {
		s.mu.Unlock()
		writeErr(w, http.StatusNotFound, fmt.Errorf("monitor %q not found", id))
		return
	}
	if err := s.db.Delete(bucketMonitors, id); err != nil {
		s.mu.Unlock()
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	delete(s.monitors, id)
	s.syncMonitorGauge()
	s.mu.Unlock()
	// Close outside the server lock: Close walks subscriber channels.
	m.hub.Close()
	w.WriteHeader(http.StatusNoContent)
}

// monitorEventsResponse is the wire shape of POST .../events.
type monitorEventsResponse struct {
	// Applied counts events accepted before the first failure (all of
	// them on success); estimator state reflects exactly those events.
	Applied int `json:"applied"`
	// Alarms are the transitions this batch produced, in order.
	Alarms []drift.AlarmEvent `json:"alarms"`
}

func (s *Server) handleMonitorEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, ok := s.lookupMonitor(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("monitor %q not found", id))
		return
	}
	body, ok := readBody(w, r, maxEventsBody)
	if !ok {
		return
	}
	events, err := drift.DecodeEvents(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	resp := monitorEventsResponse{Alarms: []drift.AlarmEvent{}}
	var applyErr error
	m.mu.Lock()
	for i, ev := range events {
		alarms, err := m.watch.Apply(ev)
		if err != nil {
			applyErr = fmt.Errorf("event %d (after %d applied): %w", i, resp.Applied, err)
			break
		}
		resp.Applied++
		for _, a := range alarms {
			resp.Alarms = append(resp.Alarms, m.hub.Publish(a))
		}
	}
	var persistErr error
	if len(resp.Alarms) > 0 {
		// Transitions changed durable alarm state — also when a later
		// event failed, since the applied prefix stays applied and its
		// transitions are already published. Persist before answering so
		// a crash cannot resurrect a cleared alarm or forget a fired one.
		persistErr = s.persistMonitor(m)
	}
	m.mu.Unlock()
	switch {
	case persistErr != nil:
		writeErr(w, http.StatusInternalServerError, persistErr)
	case applyErr != nil:
		writeErr(w, http.StatusBadRequest, applyErr)
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

func (s *Server) handleMonitorBaseline(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, ok := s.lookupMonitor(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("monitor %q not found", id))
		return
	}
	m.mu.Lock()
	sealed := m.watch.SealBaseline()
	err := s.persistMonitor(m)
	m.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]map[string]float64{"sealed": sealed})
}

// handleMonitorEventStream streams a monitor's alarm transitions as
// server-sent events: bounded replay first, then live transitions until
// the client disconnects or the monitor is deleted (hub closed).
func (s *Server) handleMonitorEventStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	m, ok := s.lookupMonitor(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("monitor %q not found", id))
		return
	}
	sub := m.hub.Subscribe()
	defer sub.Close()
	serveSSE(w, r, sub, func(ev drift.AlarmEvent) (int64, string) {
		return ev.Seq, ev.Type
	}, jsonData[drift.AlarmEvent])
}
