package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/eventlog"
	"fairrank/internal/jobs"
	"fairrank/internal/store"
)

// gatedServer is a server on PaperWorkers(7300, 42) as "paper" whose job
// runs wait until release is closed, so a stream is attached before its
// job's search starts.
func gatedServer(t *testing.T) (*Server, *httptest.Server, chan struct{}) {
	t.Helper()
	db, err := store.Open(t.TempDir()+"/srv.db", store.Options{})
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
	s, err := New(db, func(s *Server) { s.jobExecWrap = gate })
	if err != nil {
		t.Fatal(err)
	}
	putDataset(t, s, "paper", 7300)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, release
}

// submitUnbalanced submits an unbalanced audit of "paper" and returns
// its job as queued.
func submitUnbalanced(t *testing.T, s *Server, ts *httptest.Server) jobs.Job {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
		"dataset": "paper", "algorithm": "unbalanced", "seed": 7,
		"weights": map[string]float64{"LanguageTest": 0.6, "ApprovalRate": 0.4},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d (%s)", resp.StatusCode, body)
	}
	var j apiJob
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	job, _ := s.Jobs().Get(j.ID)
	return job
}

// searchSteps runs the job's spec in process: the steps its search takes.
func searchSteps(t *testing.T, s *Server, j jobs.Job) []core.TraceStep {
	t.Helper()
	spec, err := s.resolveJobSpec(j.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Evaluator, err = core.NewEvaluator(spec.Dataset, spec.Func, spec.Config); err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res.Steps
}

// TestJobEventsLossless: a client that keeps reading GET
// /v1/jobs/{id}/events of an unbalanced audit of the paper's 7,300 workers
// gets every step the search takes, in order, under contiguous seq
// numbers, and no event is counted as dropped.
func TestJobEventsLossless(t *testing.T) {
	// One CPU, as when searches hold them all: the writer then waits for
	// the search to yield.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, ts, release := gatedServer(t)
	dropped := s.metrics.Counter(jobs.MetricEventsDropped)
	before := dropped.Value()
	j := submitUnbalanced(t, s, ts)
	stream, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	var evs []jobs.Event
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		if len(evs) == 0 {
			close(release) // the replay proves the stream attached
		}
		var ev jobs.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad event %q: %v", data, err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var steps []core.TraceStep
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Type == jobs.EventProgress {
			steps = append(steps, *ev.Step)
		}
	}
	if last := evs[len(evs)-1]; last.State != jobs.StateDone {
		t.Fatalf("stream ends with %+v", last)
	}
	want := searchSteps(t, s, j)
	if len(want) < 500 || !reflect.DeepEqual(steps, want) {
		t.Fatalf("streamed %d steps, the search takes %d", len(steps), len(want))
	}
	if got := dropped.Value(); got != before {
		t.Fatalf("%d events dropped", got-before)
	}
}

// flushRecorder is a ResponseWriter that records the body and, at each
// flush, its time and how much of the body had been written.
type flushRecorder struct {
	header  http.Header
	mu      sync.Mutex
	body    bytes.Buffer
	flushes []flushMark
	flushed chan struct{} // receives after each flush
}

type flushMark struct {
	at    time.Time
	bytes int
}

func newFlushRecorder() *flushRecorder {
	return &flushRecorder{header: http.Header{}, flushed: make(chan struct{}, 1<<10)}
}

func (f *flushRecorder) Header() http.Header { return f.header }
func (f *flushRecorder) WriteHeader(int)     {}

func (f *flushRecorder) Write(b []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.body.Write(b)
}

func (f *flushRecorder) Flush() {
	f.mu.Lock()
	f.flushes = append(f.flushes, flushMark{time.Now(), f.body.Len()})
	f.mu.Unlock()
	f.flushed <- struct{}{}
}

// TestJobEventsFlushBound: a stream of an unbalanced audit of the paper's
// 7,300 workers — about a thousand events — flushes at most once per
// sseFlushEvery of its time, plus the first and the last flush and one
// to spare, and its last flush carries the terminal event.
func TestJobEventsFlushBound(t *testing.T) {
	s, ts, release := gatedServer(t)
	j := submitUnbalanced(t, s, ts)
	rec := newFlushRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.ID+"/events", nil)
	req.SetPathValue("id", j.ID)
	served := make(chan time.Duration)
	go func() {
		start := time.Now()
		s.handleJobEvents(rec, req)
		served <- time.Since(start)
	}()
	<-rec.flushed
	close(release)
	took := <-served

	rec.mu.Lock()
	defer rec.mu.Unlock()
	bound := int((took+sseFlushEvery-1)/sseFlushEvery) + 3
	if len(rec.flushes) > bound {
		t.Fatalf("%d flushes in %v, bound %d", len(rec.flushes), took, bound)
	}
	body := rec.body.String()
	if n := strings.Count(body, "\nevent: progress\n"); n < 500 {
		t.Fatalf("%d progress events streamed", n)
	}
	if !strings.HasSuffix(body, `"state":"done","attempt":1}`+"\n\n") || rec.flushes[len(rec.flushes)-1].bytes != len(body) {
		t.Fatalf("last flush at %d of %d bytes; stream ends %q", rec.flushes[len(rec.flushes)-1].bytes, len(body), body[max(len(body)-80, 0):])
	}
	t.Logf("%d flushes in %v", len(rec.flushes), took)
}

// TestSSETerminalFlushWaitsNot: the batch that ends a stream is flushed
// at once, not when the flush interval is out. An event that arrives
// right after a flush waits out the interval, unless the stream ends
// with it; a writer that waited would flush the end a whole
// sseFlushEvery after the flush before. Scheduling can delay the
// flush as well, so one trial in ten must see it sooner.
func TestSSETerminalFlushWaitsNot(t *testing.T) {
	type event struct {
		Seq int64 `json:"seq"`
	}
	frame := func(ev event) (int64, string) { return ev.Seq, "e" }
	var gaps []time.Duration
	for trial := 0; trial < 10; trial++ {
		l := eventlog.New(8, func(ev *event, seq int64) { ev.Seq = seq }, nil)
		sub := l.Subscribe()
		rec := newFlushRecorder()
		served := make(chan struct{})
		go func() {
			serveSSE(rec, httptest.NewRequest(http.MethodGet, "/", nil), sub, frame, jsonData[event])
			close(served)
		}()
		<-rec.flushed // the headers, at once
		l.Publish(event{})
		l.Publish(event{})
		l.Close()
		<-served
		sub.Close()
		if want := "id: 1\nevent: e\ndata: {\"seq\":1}\n\nid: 2\nevent: e\ndata: {\"seq\":2}\n\n"; rec.body.String() != want || len(rec.flushes) < 2 {
			t.Fatalf("%d flushes of %q", len(rec.flushes), rec.body.String())
		}
		n := len(rec.flushes)
		gaps = append(gaps, rec.flushes[n-1].at.Sub(rec.flushes[n-2].at))
		if gaps[trial] < sseFlushEvery {
			return
		}
	}
	t.Fatalf("the last flush came %v after the one before", gaps)
}

// TestJobEventDataMatchesEncoder: appendJobEvent writes json.Encoder's
// bytes, newline aside, for every event of a real job of each heuristic
// over the paper's 7,300 workers, and for distances and strings at the
// edges of encoding/json's formats; a distance encoding/json refuses is
// refused.
func TestJobEventDataMatchesEncoder(t *testing.T) {
	s, ts, release := gatedServer(t)
	var subs []*eventlog.Sub[jobs.Event]
	for _, alg := range []string{"balanced", "all-attributes", "unbalanced"} {
		resp, body := postJSON(t, ts.URL+"/v1/jobs", map[string]any{
			"dataset": "paper", "algorithm": alg, "seed": 7,
			"weights": map[string]float64{"LanguageTest": 0.6, "ApprovalRate": 0.4},
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit status %d (%s)", alg, resp.StatusCode, body)
		}
		var j apiJob
		if err := json.Unmarshal(body, &j); err != nil {
			t.Fatal(err)
		}
		sub, err := s.jobs.Subscribe(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	close(release)
	var evs []jobs.Event
	for _, sub := range subs {
		for {
			var done bool
			if evs, done = sub.Read(evs); done {
				break
			}
			<-sub.Wake()
		}
		sub.Close()
	}
	if steps := len(evs); steps < 1000 {
		t.Fatalf("three jobs streamed %d events", steps)
	}
	step := func(d float64) *core.TraceStep {
		return &core.TraceStep{Attribute: -1, AvgDistance: d, Partitions: 3}
	}
	for _, d := range []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.99e-7, 5e-324, 0.1, 1, 123456.789,
		1e20, 1e21, 1.5e300, math.MaxFloat64, -2.5e-8} {
		evs = append(evs, jobs.Event{Seq: 9, Type: jobs.EventProgress, Attempt: 1, Step: step(d)})
	}
	for _, msg := range []string{`a "quoted" <tag> & more`, "line\u2028sep\u2029", "ctl\x01\t\n", "bad \xff utf-8", "é ✓"} {
		evs = append(evs, jobs.Event{Seq: 10, Type: jobs.EventState, State: jobs.StateFailed, Attempt: 2, Error: msg})
	}
	evs = append(evs, jobs.Event{}, jobs.Event{Type: "x<y", State: "a&b"})
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, ev := range evs {
		want.Reset()
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
		got, err := appendJobEvent([]byte("data: "), ev)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := string(got)+"\n", "data: "+want.String(); g != w {
			t.Fatalf("appendJobEvent wrote %q, encoding/json %q", g, w)
		}
	}
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ev := jobs.Event{Type: jobs.EventProgress, Step: step(d)}
		if _, err := appendJobEvent(nil, ev); err == nil || enc.Encode(ev) == nil {
			t.Fatalf("distance %v: appendJobEvent error %v; encoding/json must refuse it too", d, err)
		}
	}
}
