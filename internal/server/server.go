// Package server exposes the fairrank platform over HTTP: dataset upload,
// task posting, filtered ranking (the marketplace result page), and
// fairness audits as durable jobs — with tasks, job records and dataset
// snapshots held in the embedded store.
//
// API (all JSON unless noted):
//
//	GET  /healthz                     liveness probe
//	GET  /v1/datasets                 list datasets
//	POST /v1/datasets/{name}          upload: text/csv (paper schema) or
//	                                  application/x-fairrank-snapshot (columnar,
//	                                  streamed to disk and served mmap'd); the
//	                                  name then holds that content, stored once
//	                                  per content digest
//	GET  /v1/datasets/{name}          dataset metadata
//	GET  /v1/datasets/{name}/snapshot columnar snapshot bytes (Range-capable)
//	POST /v1/datasets/{name}/uploads  start a chunked upload session {"size":N}
//	POST /v1/datasets/{name}/chunks   send one chunk (Upload-Token, Content-Range)
//	GET  /v1/datasets/{name}/uploads/{token}  session progress (resume point)
//	DELETE /v1/datasets/{name}/uploads/{token} abort session
//	POST /v1/tasks                    post a task {id,title,dataset,weights}
//	GET  /v1/tasks                    list tasks
//	GET  /v1/rank?task=&k=&q=         plain ranked page (k defaults to 10);
//	                                  the query form of POST /v1/rank
//	POST /v1/rank                     ranked page, optionally through a
//	                                  registered fair re-ranker (rankPostRequest)
//	GET  /v1/rerankers                list registered re-ranker names
//	GET  /v1/algorithms               list registered audit algorithms
//	POST /v1/jobs                     submit an audit job (jobs.Spec; 202,
//	                                  200 on dedup, 429 when full)
//	GET  /v1/jobs                     list jobs (paginated: limit/offset/state),
//	                                  a done job with its result's summary
//	GET  /v1/jobs/{id}                job status + result
//	DELETE /v1/jobs/{id}              cancel a queued or running job
//	GET  /v1/jobs/{id}/events         follow job lifecycle + progress (SSE)
//	POST /v1/monitors                 create a continuous-audit drift monitor
//	                                  (drift.Spec JSON; seeded from its dataset)
//	GET  /v1/monitors                 list monitor statuses
//	GET  /v1/monitors/{id}            one monitor's status (estimators + alarms)
//	DELETE /v1/monitors/{id}          delete a monitor (closes its event stream)
//	POST /v1/monitors/{id}/events     feed a batch of join/leave/rescore events,
//	                                  returns alarm transitions
//	GET  /v1/monitors/{id}/events     follow alarm transitions (SSE)
//	POST /v1/monitors/{id}/baseline   seal window-vs-baseline comparison levels
//	POST /v1/repair                   before/after unfairness of score repair
//	POST /v1/explain                  per-attribute importance for a function
//	GET  /v1/cluster                  cluster membership + placement status
//	GET  /v1/cluster/ping             peer heartbeat (depth + dataset inventory)
//	POST /v1/cluster/steal            peer protocol: claim queued jobs
//	POST /v1/cluster/ack              peer protocol: finalize a steal handoff
//	POST /v1/cluster/hydrate          pull a snapshot from a peer {name, peer}
//	GET  /                            HTML dashboard
//
// Every JSON body is read through readBody, bounded (413 when over), and
// decoded strictly (400 on unknown fields or trailing data). Repair and
// explain run the engine inside the request and share one admission gate
// that sheds with 429 + Retry-After, as job admission does.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"fairrank/internal/cluster"
	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/eventlog"
	"fairrank/internal/explain"
	"fairrank/internal/jobs"
	"fairrank/internal/partition"
	"fairrank/internal/repair"
	"fairrank/internal/rerank"
	"fairrank/internal/scoring"
	"fairrank/internal/simulate"
	"fairrank/internal/store"
	"fairrank/internal/telemetry"
)

const (
	bucketTasks    = "tasks"
	maxUploadBytes = 256 << 20
)

// Server is the HTTP platform server. Create with New, mount via Handler.
type Server struct {
	db *store.DB
	// logf receives request log lines; nil disables request logging.
	logf func(format string, args ...any)
	// metrics receives per-route HTTP series and the engine series of
	// every audit evaluator; served at GET /metrics.
	metrics *telemetry.Registry
	// pprof mounts /debug/pprof/ when set (see WithPprof).
	pprof bool
	// jobs is the durable async audit scheduler behind /v1/jobs.
	jobs *jobs.Queue
	// jobOpts tunes the queue; see WithJobWorkers / WithJobQueueLimit.
	jobOpts jobs.Options
	// jobExecWrap, when non-nil, wraps the job executor — a seam for
	// crash/recovery tests to gate or observe runs.
	jobExecWrap func(jobs.Executor) jobs.Executor
	// seedEach, when non-nil, is called after each row a new monitor's
	// seed joins (drift.SeedDataset's each) — a seam for tests to hold a
	// create mid-seed.
	seedEach func(n int)

	// snaps owns the columnar snapshot files backing every registered
	// dataset, named by content digest; the WAL holds only name refs (see
	// store.Snapshots).
	snaps *store.Snapshots
	// uploadDir holds chunked-upload spill files (see upload.go).
	uploadDir string

	// cluster federates this node with its peers when EnableCluster was
	// called; nil on a standalone node. Guarded by mu (set once, read on
	// hot paths).
	cluster *cluster.Cluster

	mu sync.RWMutex
	// datasets maps each dataset name to the mapping of the content it
	// holds.
	datasets map[string]*dataset.Dataset
	// contents maps a content digest to its one mapping. It keeps every
	// content registered in this process, including what a name held
	// before it was replaced or deleted, so a job pinned to that digest
	// still runs it. Audit handlers and job workers hold *Dataset pointers
	// across long runs without the lock, so a mapping no name serves is
	// unmapped at Shutdown, after the drain, never earlier; address space
	// is the only cost of keeping it.
	contents map[string]*dataset.Dataset
	sessions map[string]*uploadSession
	// monitors are the live continuous-audit watches (see monitors.go).
	monitors map[string]*serverMonitor
	// hydrating guards per-dataset snapshot hydration (cluster.go).
	hydrating map[string]bool
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithRequestLog enables request logging through logf (e.g. log.Printf).
func WithRequestLog(logf func(format string, args ...any)) ServerOption {
	return func(s *Server) { s.logf = logf }
}

// WithJobWorkers sets the async-audit worker pool size (default 2).
func WithJobWorkers(n int) ServerOption {
	return func(s *Server) { s.jobOpts.Workers = n }
}

// WithJobQueueLimit bounds admitted (queued + running) async jobs; excess
// submissions get 429 with a Retry-After hint (default 64).
func WithJobQueueLimit(n int) ServerOption {
	return func(s *Server) { s.jobOpts.MaxActive = n }
}

// New builds a Server over an open store. Registered datasets live as
// columnar snapshot files next to the WAL and are reopened memory-mapped,
// so boot cost and resident memory stay independent of population size.
// A store in a format this version does not read is refused before boot
// changes anything (checkFormat).
func New(db *store.DB, opts ...ServerOption) (*Server, error) {
	if err := checkFormat(db); err != nil {
		return nil, err
	}
	s := &Server{
		db:        db,
		datasets:  map[string]*dataset.Dataset{},
		contents:  map[string]*dataset.Dataset{},
		sessions:  map[string]*uploadSession{},
		monitors:  map[string]*serverMonitor{},
		hydrating: map[string]bool{},
		metrics:   telemetry.NewRegistry(),
	}
	for _, o := range opts {
		o(s)
	}
	// Engine series appear on /metrics from boot, not after the first
	// audit creates an evaluator; same for the re-rank serving series
	// behind POST /v1/rank.
	core.PreregisterMetrics(s.metrics)
	rerank.PreregisterMetrics(s.metrics)
	// Build identity on every scrape: heterogeneous cluster rollouts show
	// up as differing fairrank_build_info labels across nodes.
	telemetry.RegisterBuildInfo(s.metrics)
	snaps, err := store.NewSnapshots(db, db.Path()+".snapshots")
	if err != nil {
		return nil, fmt.Errorf("server: snapshot store: %w", err)
	}
	s.snaps = snaps
	s.uploadDir = db.Path() + ".uploads"
	if err := os.MkdirAll(s.uploadDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: upload dir: %w", err)
	}
	if _, err := snaps.Sweep(); err != nil {
		return nil, fmt.Errorf("server: snapshot sweep: %w", err)
	}
	if err := s.reloadDatasets(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if err := s.reloadUploads(); err != nil {
		return nil, fmt.Errorf("server: reload uploads: %w", err)
	}
	// Monitors revive after datasets so the seed replay can read rows.
	if err := s.reloadMonitors(); err != nil {
		return nil, fmt.Errorf("server: reload monitors: %w", err)
	}
	// The queue starts after datasets reload so recovered jobs can
	// resolve their specs the moment a worker picks them up.
	exec := jobs.Executor(s.execJob)
	if s.jobExecWrap != nil {
		exec = s.jobExecWrap(exec)
	}
	s.jobOpts.Metrics = s.metrics
	s.jobOpts.Logf = s.logf
	q, err := jobs.New(db, exec, s.jobOpts)
	if err != nil {
		return nil, fmt.Errorf("server: job queue: %w", err)
	}
	s.jobs = q
	return s, nil
}

// Jobs exposes the async audit queue (metrics, tests, embedding).
func (s *Server) Jobs() *jobs.Queue { return s.jobs }

// Shutdown drains the server's background work: job admission stops, the
// worker pool drains until ctx expires, and whatever remains is parked
// durably for the next process. The HTTP listener is owned by the caller
// (cmd/fairserve) and must be shut down first so no new jobs arrive.
// Mappings no name serves any more — replaced or deleted while audits may
// still have been reading them — are unmapped here, after the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	// The cluster loop goes first: no more steals, forwards, or
	// hydrations may touch the queue or the dataset table mid-drain.
	if c := s.clusterRef(); c != nil {
		c.Close()
	}
	err := s.jobs.Shutdown(ctx)
	s.mu.Lock()
	defer s.mu.Unlock()
	served := map[*dataset.Dataset]bool{}
	for _, ds := range s.datasets {
		served[ds] = true
	}
	for digest, ds := range s.contents {
		if !served[ds] {
			ds.Close()
			delete(s.contents, digest)
		}
	}
	return err
}

// errInvalidSnapshot marks registered bytes that do not open as a
// columnar snapshot: the client's fault, not the server's.
var errInvalidSnapshot = errors.New("uploaded snapshot invalid")

// register is the one way a dataset arrives: snapshot and CSV uploads,
// chunked sessions, peer hydration and PutDataset all end here. It maps
// the complete snapshot file at spill once, hashes that mapping once,
// moves the file into the snapshot store under its digest, and serves
// the same mapping under name. The spill is consumed either way.
func (s *Server) register(name, spill string) (*dataset.Dataset, error) {
	ds, err := dataset.OpenSnapshot(spill)
	if err != nil {
		os.Remove(spill)
		return nil, fmt.Errorf("%w: %w", errInvalidSnapshot, err)
	}
	digest := digestOf(ds)
	// The stored ref and the served table change under one lock, so
	// concurrent registrations of a name cannot leave them disagreeing.
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.snaps.Adopt(name, digest, spill); err != nil {
		ds.Close()
		os.Remove(spill)
		return nil, err
	}
	return s.serveLocked(name, digest, ds), nil
}

// PutDataset stores ds as dataset name, replacing any dataset of that
// name, through the path every upload takes: ds is written out as a
// columnar snapshot spill and registered.
func (s *Server) PutDataset(name string, ds *dataset.Dataset) error {
	path, err := s.spill(ds.WriteSnapshot)
	if err == nil {
		_, err = s.register(name, path)
	}
	return err
}

// spill writes a new file in the upload directory through write and
// syncs it, the form register takes. On error no file is left.
func (s *Server) spill(write func(io.Writer) error) (string, error) {
	f, err := os.CreateTemp(s.uploadDir, "put-*")
	if err != nil {
		return "", err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// serveLocked points name at the content digest, mapped by ds unless
// contents already maps it; then ds is closed and the existing mapping
// serves. It returns the serving mapping. Callers hold s.mu.
func (s *Server) serveLocked(name, digest string, ds *dataset.Dataset) *dataset.Dataset {
	if have, ok := s.contents[digest]; ok {
		ds.Close()
		ds = have
	} else {
		s.contents[digest] = ds
	}
	s.datasets[name] = ds
	return ds
}

// reloadDatasets maps every stored snapshot at boot and serves it under
// its name. A ref's stored digest seeds its mapping's, so boot hashes
// nothing again.
func (s *Server) reloadDatasets() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, ref := range s.snaps.Refs() {
		sum, err := hex.DecodeString(ref.Digest)
		if err != nil || len(sum) != sha256.Size {
			return fmt.Errorf("reload dataset %q: bad digest %q", name, ref.Digest)
		}
		ds, err := dataset.OpenSnapshot(filepath.Join(s.snaps.Dir(), ref.File))
		if err != nil {
			return fmt.Errorf("reload dataset %q: %w", name, err)
		}
		ds.SeedDigest([sha256.Size]byte(sum))
		s.serveLocked(name, ref.Digest, ds)
	}
	return nil
}

// digestOf is ds's content digest in hex: its key in Server.contents, its
// snapshot file's name and what a job auditing it pins.
func digestOf(ds *dataset.Dataset) string {
	sum := ds.Digest()
	return hex.EncodeToString(sum[:])
}

// Handler returns the HTTP handler with all routes mounted. Every route
// is wrapped with per-route request/latency metrics at mount time (see
// instrument); /metrics itself, /debug/vars and the pprof endpoints are
// left bare so scraping does not observe itself.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.Handler) {
		mux.Handle(pattern, s.instrument(pattern, h))
	}
	handleFunc := func(pattern string, h http.HandlerFunc) { handle(pattern, h) }
	handleFunc("GET /{$}", s.handleDashboard)
	handleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	handleFunc("GET /v1/datasets", s.handleListDatasets)
	handleFunc("POST /v1/datasets/{name}", s.handleUploadDataset)
	handleFunc("GET /v1/datasets/{name}", s.handleGetDataset)
	handleFunc("GET /v1/datasets/{name}/snapshot", s.handleSnapshotExport)
	handleFunc("DELETE /v1/datasets/{name}", s.handleDeleteDataset)
	handleFunc("POST /v1/datasets/{name}/uploads", s.handleCreateUpload)
	handleFunc("GET /v1/datasets/{name}/uploads/{token}", s.handleUploadStatus)
	handleFunc("DELETE /v1/datasets/{name}/uploads/{token}", s.handleAbortUpload)
	handleFunc("POST /v1/datasets/{name}/chunks", s.handleUploadChunk)
	handleFunc("POST /v1/tasks", s.handlePostTask)
	handleFunc("GET /v1/tasks", s.handleListTasks)
	handleFunc("DELETE /v1/tasks/{id}", s.handleDeleteTask)
	handleFunc("GET /v1/rank", s.handleRank)
	handleFunc("POST /v1/rank", s.handleRankPost)
	handleFunc("GET /v1/rerankers", s.handleRerankers)
	handleFunc("GET /v1/algorithms", s.handleAlgorithms)
	handleFunc("POST /v1/jobs", s.handleSubmitJob)
	handleFunc("GET /v1/jobs", s.handleListJobs)
	handleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	handleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	handleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	handleFunc("POST /v1/monitors", s.handleCreateMonitor)
	handleFunc("GET /v1/monitors", s.handleListMonitors)
	handleFunc("GET /v1/monitors/{id}", s.handleGetMonitor)
	handleFunc("DELETE /v1/monitors/{id}", s.handleDeleteMonitor)
	handleFunc("POST /v1/monitors/{id}/events", s.handleMonitorEvents)
	handleFunc("GET /v1/monitors/{id}/events", s.handleMonitorEventStream)
	handleFunc("POST /v1/monitors/{id}/baseline", s.handleMonitorBaseline)
	handleFunc("GET /v1/cluster", s.handleClusterStatus)
	handleFunc("GET /v1/cluster/ping", s.handleClusterPing)
	handleFunc("POST /v1/cluster/steal", s.handleClusterSteal)
	handleFunc("POST /v1/cluster/ack", s.handleClusterAck)
	handleFunc("POST /v1/cluster/hydrate", s.handleClusterHydrate)
	gate := withSemaphore(maxSyncEvals)
	handle("POST /v1/repair", gate(http.HandlerFunc(s.handleRepair)))
	handle("POST /v1/explain", gate(http.HandlerFunc(s.handleExplain)))
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("GET /debug/vars", expvar.Handler())
	if s.pprof {
		mountPprof(mux)
	}
	return withLogging(s.logf, withRecovery(mux))
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// sseFlushEvery is the least time between two flushes of an event
// stream while its events keep coming.
const sseFlushEvery = 5 * time.Millisecond

// serveSSE streams a subscription as server-sent events: the replayed
// history first, then live events until the log ends, a write fails or
// the client goes away. Each event is framed as id/event/data, with frame
// supplying the id and event name and data appending the event's JSON
// encoding. Every pending event goes out in one write and one flush: the
// first batch at once, later ones at most every sseFlushEvery, and the
// batch that ends the stream at once.
func serveSSE[E any](w http.ResponseWriter, r *http.Request, sub *eventlog.Sub[E], frame func(E) (id int64, event string), data func([]byte, E) ([]byte, error)) {
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	var (
		buf     []byte
		err     error
		evs     []E
		done    bool
		last    time.Time // of the last flush; zero sends the first batch at once
		timer   = time.NewTimer(time.Hour)
		pending <-chan time.Time // the timer's channel while it runs
	)
	timer.Stop()
	defer timer.Stop()
	for {
		evs, done = sub.Read(evs)
		switch {
		case done || pending == nil && (len(evs) > 0 || last.IsZero()) && time.Since(last) >= sseFlushEvery:
			buf = buf[:0]
			for _, ev := range evs {
				id, event := frame(ev)
				buf = strconv.AppendInt(append(buf, "id: "...), id, 10)
				buf = append(append(append(buf, "\nevent: "...), event...), "\ndata: "...)
				if buf, err = data(buf, ev); err != nil {
					return
				}
				buf = append(buf, "\n\n"...)
			}
			if _, err := w.Write(buf); err != nil || rc.Flush() != nil || done {
				return
			}
			evs, last = evs[:0], time.Now()
		case pending == nil && len(evs) > 0:
			timer.Reset(time.Until(last.Add(sseFlushEvery)))
			pending = timer.C
		}
		select {
		case <-sub.Wake():
		case <-pending:
			pending = nil
		case <-r.Context().Done():
			return
		}
	}
}

// jsonData appends ev as encoding/json encodes it: the data of an event
// whose shape has no hand-written encoder.
func jsonData[E any](dst []byte, ev E) ([]byte, error) {
	b, err := json.Marshal(ev)
	return append(dst, b...), err
}

// Request body bounds; the peer protocol's is cluster.MaxMessageBytes. A
// body over its route's bound is answered 413.
const (
	// maxRequestBody bounds the plain request structs (tasks, rank,
	// repair, explain, upload sessions, hydrate): a handful of short
	// fields.
	maxRequestBody = 64 << 10
	// maxSpecBody bounds a job or monitor spec.
	maxSpecBody   = 1 << 20
	maxEventsBody = 8 << 20
)

// readBody reads a request body of at most limit bytes: the one way every
// JSON route reads its body. It answers 413 to a body over the limit and
// 400 to one that cannot be read, and reports whether to go on.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	switch {
	case errors.As(err, new(*http.MaxBytesError)):
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes: %w", limit, err))
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
	default:
		return body, true
	}
	return nil, false
}

// decodeBody reads a body through readBody and decodes exactly one JSON
// value from it into v, answering 400 to unknown fields and trailing
// data. Routes whose package owns a strict []byte decoder (jobs, drift,
// cluster) call readBody and that decoder instead.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	body, ok := readBody(w, r, limit)
	if !ok {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request json: %w", err))
		return false
	}
	if _, err := dec.Token(); err != io.EOF {
		writeErr(w, http.StatusBadRequest, errors.New("bad request json: trailing data after json value"))
		return false
	}
	return true
}

// lookupDataset returns the live dataset registered under name, answering
// 404 when there is none.
func (s *Server) lookupDataset(w http.ResponseWriter, name string) (*dataset.Dataset, bool) {
	s.mu.RLock()
	ds, ok := s.datasets[name]
	s.mu.RUnlock()
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("dataset %q not found", name))
	}
	return ds, ok
}

type datasetInfo struct {
	Name      string   `json:"name"`
	Workers   int      `json:"workers"`
	Protected []string `json:"protected"`
	Observed  []string `json:"observed"`
}

func describe(name string, ds *dataset.Dataset) datasetInfo {
	info := datasetInfo{Name: name, Workers: ds.N()}
	for _, a := range ds.Schema().Protected {
		info.Protected = append(info.Protected, a.Name)
	}
	for _, a := range ds.Schema().Observed {
		info.Observed = append(info.Observed, a.Name)
	}
	return info
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.datasets))
	for n := range s.datasets {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]datasetInfo, 0, len(names))
	for _, n := range names {
		out = append(out, describe(n, s.datasets[n]))
	}
	writeJSON(w, http.StatusOK, out)
}

// contentTypeSnapshot is the columnar snapshot format (dataset.WriteSnapshot).
// Uploads of this type stream through a spill file and are served
// memory-mapped; the server heap never holds the columns.
const contentTypeSnapshot = "application/x-fairrank-snapshot"

func (s *Server) handleUploadDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name == "" {
		writeErr(w, http.StatusBadRequest, errors.New("dataset name required"))
		return
	}
	var ds *dataset.Dataset
	var err error
	switch ct := r.Header.Get("Content-Type"); ct {
	case contentTypeSnapshot:
		spill, ok := s.spillBody(w, r)
		if !ok {
			return
		}
		ds, err = s.register(name, spill)
	case "text/csv":
		body, rerr := io.ReadAll(io.LimitReader(r.Body, maxUploadBytes+1))
		switch {
		case rerr != nil:
			writeErr(w, http.StatusBadRequest, rerr)
			return
		case len(body) > maxUploadBytes:
			writeErr(w, http.StatusRequestEntityTooLarge, errors.New("upload exceeds size limit"))
			return
		}
		ds, err = dataset.ReadCSV(bytes.NewReader(body), simulate.PaperSchema())
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		// describe reads only the size and schema, which the parsed copy
		// shares with the stored mapping.
		err = s.PutDataset(name, ds)
	default:
		writeErr(w, http.StatusUnsupportedMediaType,
			fmt.Errorf("content type %q (want text/csv or %s)", ct, contentTypeSnapshot))
		return
	}
	switch {
	case errors.Is(err, errInvalidSnapshot):
		writeErr(w, http.StatusBadRequest, err)
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusCreated, describe(name, ds))
	}
}

// spillBody streams a body of at most maxUploadBytes into a spill and
// returns its path. On failure it answers the request itself and reports
// false.
func (s *Server) spillBody(w http.ResponseWriter, r *http.Request) (string, bool) {
	var n int64
	path, err := s.spill(func(f io.Writer) (err error) {
		n, err = io.Copy(f, io.LimitReader(r.Body, maxUploadBytes+1))
		return err
	})
	switch {
	case err != nil:
		writeErr(w, http.StatusBadRequest, err)
	case n > maxUploadBytes:
		os.Remove(path)
		writeErr(w, http.StatusRequestEntityTooLarge, errors.New("upload exceeds size limit"))
	default:
		return path, true
	}
	return "", false
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if ds, ok := s.lookupDataset(w, name); ok {
		writeJSON(w, http.StatusOK, describe(name, ds))
	}
}

func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.datasets[name]; !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("dataset %q not found", name))
		return
	}
	// Refuse while tasks still reference the dataset: deleting under a
	// live task would break its ranking endpoint.
	for _, id := range s.db.Keys(bucketTasks) {
		raw, ok := s.db.Get(bucketTasks, id)
		if !ok {
			continue
		}
		var t taskSpec
		if json.Unmarshal(raw, &t) == nil && t.Dataset == name {
			writeErr(w, http.StatusConflict,
				fmt.Errorf("task %q still references dataset %q", t.ID, name))
			return
		}
	}
	// Same for monitors: a revived monitor must be able to re-seed from
	// its dataset at the next boot.
	for id, m := range s.monitors {
		if m.watch.Spec().Dataset == name {
			writeErr(w, http.StatusConflict,
				fmt.Errorf("monitor %q still references dataset %q", id, name))
			return
		}
	}
	if err := s.snaps.Delete(name); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	// The mapping stays in s.contents: an in-flight audit may still be
	// reading it, and a job pinned to its digest still runs it.
	delete(s.datasets, name)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDeleteTask(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.db.Get(bucketTasks, id); !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("task %q not found", id))
		return
	}
	if err := s.db.Delete(bucketTasks, id); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

type taskSpec struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Dataset string             `json:"dataset"`
	Weights map[string]float64 `json:"weights"`
}

func (s *Server) handlePostTask(w http.ResponseWriter, r *http.Request) {
	var t taskSpec
	if !decodeBody(w, r, maxRequestBody, &t) {
		return
	}
	if t.ID == "" || t.Dataset == "" {
		writeErr(w, http.StatusBadRequest, errors.New("task id and dataset are required"))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ds, ok := s.datasets[t.Dataset]
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("dataset %q not found", t.Dataset))
		return
	}
	f, err := scoring.NewLinear(t.ID, t.Weights)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := f.Validate(ds.Schema()); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if _, dup := s.db.Get(bucketTasks, t.ID); dup {
		writeErr(w, http.StatusConflict, fmt.Errorf("task %q already exists", t.ID))
		return
	}
	raw, err := json.Marshal(t)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if err := s.db.Put(bucketTasks, t.ID, raw); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, t)
}

func (s *Server) handleListTasks(w http.ResponseWriter, r *http.Request) {
	out := []taskSpec{}
	for _, id := range s.db.Keys(bucketTasks) {
		raw, ok := s.db.Get(bucketTasks, id)
		if !ok {
			continue
		}
		var t taskSpec
		if err := json.Unmarshal(raw, &t); err != nil {
			continue
		}
		out = append(out, t)
	}
	writeJSON(w, http.StatusOK, out)
}

// maxSyncEvals bounds the routes that run the engine inside the request
// (repair, explain) together. Each builds an evaluator and may run a
// full search, so unbounded concurrency lets a burst of them starve the
// ranking path.
const maxSyncEvals = 4

// evaluatorFor is the prelude repair and explain share: bound the bins as
// jobs do (400), look the dataset up (404), build the linear scoring
// function, check its weights name observed attributes of the dataset as
// jobs and tasks do, and build its evaluator (400).
func (s *Server) evaluatorFor(w http.ResponseWriter, name string, weights map[string]float64, bins int) (*core.Evaluator, bool) {
	if bins < 0 || bins > jobs.MaxBins {
		// The evaluator allocates per-bin state: an unbounded count is an
		// allocation the process cannot survive, not an error it returns.
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bins %d out of range [0, %d]", bins, jobs.MaxBins))
		return nil, false
	}
	ds, ok := s.lookupDataset(w, name)
	if !ok {
		return nil, false
	}
	f, err := scoring.NewLinear("request-fn", weights)
	if err == nil {
		err = f.Validate(ds.Schema())
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return nil, false
	}
	e, err := core.NewEvaluator(ds, f, core.Config{Bins: bins, Metrics: s.metrics})
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return nil, false
	}
	return e, true
}

// repairRequest asks for a before/after unfairness evaluation of
// quantile-matching score repair over a grouping.
type repairRequest struct {
	Dataset string `json:"dataset"`
	// Weights define the scoring function whose scores are repaired.
	Weights map[string]float64 `json:"weights"`
	// GroupBy names the protected attributes defining the repair groups;
	// empty means "the most unfair partitioning found by balanced".
	GroupBy []string `json:"group_by,omitempty"`
	Amount  float64  `json:"amount"`
	Bins    int      `json:"bins,omitempty"`
}

type repairResponse struct {
	UnfairnessBefore float64 `json:"unfairness_before"`
	UnfairnessAfter  float64 `json:"unfairness_after"`
	Groups           int     `json:"groups"`
	Amount           float64 `json:"amount"`
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	var req repairRequest
	if !decodeBody(w, r, maxRequestBody, &req) {
		return
	}
	e, ok := s.evaluatorFor(w, req.Dataset, req.Weights, req.Bins)
	if !ok {
		return
	}
	ds := e.Dataset()
	var pt *partition.Partitioning
	if len(req.GroupBy) > 0 {
		parts := []*partition.Partition{partition.Root(ds)}
		for _, name := range req.GroupBy {
			a := ds.Schema().ProtectedIndex(name)
			if a < 0 {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("%q is not a protected attribute", name))
				return
			}
			parts = partition.SplitAll(ds, parts, a)
		}
		pt = &partition.Partitioning{Parts: parts}
	} else {
		res, err := core.Run(r.Context(), core.Spec{Evaluator: e})
		if err != nil {
			if r.Context().Err() != nil {
				return
			}
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		pt = res.Partitioning
	}
	repaired, err := repair.Scores(e.Scores(), pt, req.Amount)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	column := scoring.ScoreFunc{FuncName: "repaired", Fn: func(_ *dataset.Dataset, i int) float64 { return repaired[i] }}
	after, err := core.NewEvaluator(ds, column, e.Config())
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, repairResponse{
		UnfairnessBefore: e.Unfairness(pt),
		UnfairnessAfter:  after.Unfairness(pt),
		Groups:           pt.Size(),
		Amount:           req.Amount,
	})
}

// explainRequest asks which protected attributes drive a function's
// unfairness.
type explainRequest struct {
	Dataset string             `json:"dataset"`
	Weights map[string]float64 `json:"weights"`
	Bins    int                `json:"bins,omitempty"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req explainRequest
	if !decodeBody(w, r, maxRequestBody, &req) {
		return
	}
	e, ok := s.evaluatorFor(w, req.Dataset, req.Weights, req.Bins)
	if !ok {
		return
	}
	imps, err := explain.AttributesContext(r.Context(), e)
	if err != nil {
		if r.Context().Err() != nil {
			return
		}
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, imps)
}

// handleAlgorithms lists the registered audit algorithm names — the
// authoritative validation set for jobs.Spec.Algorithm.
func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, core.Algorithms())
}
