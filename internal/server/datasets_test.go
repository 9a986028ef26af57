package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/jobs"
	"fairrank/internal/simulate"
	"fairrank/internal/store"
)

// Tests for datasets keyed by content: one registration path, one file
// per content digest, and jobs pinned to the content they were accepted
// on.

func paperWorkers(t testing.TB, n int, seed uint64) *dataset.Dataset {
	t.Helper()
	ds, err := simulate.PaperWorkers(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func hexDigest(ds *dataset.Dataset) string {
	sum := ds.Digest()
	return hex.EncodeToString(sum[:])
}

// submitJob posts spec, requires want, and returns the job it answered.
func submitJob(t *testing.T, baseURL string, spec map[string]any, want int) jobs.Job {
	t.Helper()
	resp, body := postJSON(t, baseURL+"/v1/jobs", spec)
	if resp.StatusCode != want {
		t.Fatalf("submit = %d (%s), want %d", resp.StatusCode, body, want)
	}
	var j jobs.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	return j
}

// snapFiles lists the .snap files in s's snapshot store.
func snapFiles(t *testing.T, s *Server) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(s.snaps.Dir(), "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestJobPinnedContentSurvivesReplace is the stale-cache regression: a
// job runs the content its dataset name held when it was accepted, so
// its result — and the cache entry under that content's key — never
// belongs to other content. Replacing or deleting the name under a queued
// job does not change what it audits; a restart after the content is gone
// fails the job by name and digest rather than audit something else.
func TestJobPinnedContentSurvivesReplace(t *testing.T) {
	first, second := paperWorkers(t, 300, 1), paperWorkers(t, 300, 2)
	byWeights := func(w map[string]float64) map[string]any {
		return map[string]any{"dataset": "x", "algorithm": "balanced", "weights": w}
	}
	spec := byWeights(map[string]float64{"LanguageTest": 1})
	other := byWeights(map[string]float64{"ApprovalRate": 1})

	// Reference results on a server that only ever held each content.
	_, ref, _ := newTestServer(t)
	uploadSnapshot(t, ref, "x", first)
	wantFirst := runJob(t, ref.URL, spec).Result
	wantOther := runJob(t, ref.URL, other).Result
	uploadSnapshot(t, ref, "x", second)
	if bytes.Equal(runJob(t, ref.URL, spec).Result, wantFirst) {
		t.Fatal("the two populations audit alike; the test cannot tell them apart")
	}

	path := filepath.Join(t.TempDir(), "srv.db")
	db, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}, 1), make(chan struct{})
	gate := func(exec jobs.Executor) jobs.Executor {
		return func(ctx context.Context, j jobs.Job, progress func(core.TraceStep)) ([]byte, error) {
			entered <- struct{}{}
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return exec(ctx, j, progress)
		}
	}
	s, err := New(db, WithJobWorkers(1), func(s *Server) { s.jobExecWrap = gate })
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	// Replace x while a job on its first content waits at the gate.
	uploadSnapshot(t, ts, "x", first)
	j := submitJob(t, ts.URL, spec, http.StatusAccepted)
	if j.Spec.Digest != hexDigest(first) {
		t.Fatalf("job pinned %q, want the first content's digest %s", j.Spec.Digest, hexDigest(first))
	}
	<-entered
	uploadSnapshot(t, ts, "x", second)
	release <- struct{}{}
	if got := waitJobHTTP(t, ts.URL, j.ID, jobs.StateDone).Result; !bytes.Equal(got, wantFirst) {
		t.Fatalf("job ran on the replacement:\n got  %s\n want %s", got, wantFirst)
	}
	// The result cache holds that result under the first content's key.
	uploadSnapshot(t, ts, "x", first)
	if got := submitJob(t, ts.URL, spec, http.StatusOK).Result; !bytes.Equal(got, wantFirst) {
		t.Fatalf("resubmit on the first content:\n got  %s\n want %s", got, wantFirst)
	}

	// Delete x while a second job waits at the gate.
	j = submitJob(t, ts.URL, other, http.StatusAccepted)
	<-entered
	if code := doDelete(t, ts.URL+"/v1/datasets/x"); code != http.StatusNoContent {
		t.Fatalf("delete = %d", code)
	}
	release <- struct{}{}
	if got := waitJobHTTP(t, ts.URL, j.ID, jobs.StateDone).Result; !bytes.Equal(got, wantOther) {
		t.Fatalf("job on deleted content:\n got  %s\n want %s", got, wantOther)
	}

	// Crash with a third job running, replace x, restart: the pinned
	// content went with its last ref.
	uploadSnapshot(t, ts, "x", first)
	lost := byWeights(map[string]float64{"LanguageTest": 1, "ApprovalRate": 1})
	lost["max_attempts"] = 1
	j = submitJob(t, ts.URL, lost, http.StatusAccepted)
	<-entered
	s.Jobs().Kill()
	uploadSnapshot(t, ts, "x", second)
	ts.Close()
	db.Close()

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
	failed := waitJobHTTP(t, ts2.URL, j.ID, jobs.StateFailed)
	if !strings.Contains(failed.Error, `"x"`) || !strings.Contains(failed.Error, hexDigest(first)) {
		t.Fatalf("error %q does not name the dataset and the pinned digest", failed.Error)
	}
	if len(failed.Result) != 0 {
		t.Fatalf("failed job carries a result: %s", failed.Result)
	}
}

// TestFirstSubmitAllocsFlatInN: registration hashes the content, so even
// the first submit after an upload does no O(N) work. The byte count is
// process-wide, and goroutines earlier tests leave behind allocate too:
// the measured call runs alone on one P, and each size takes the least of
// three fresh servers, as others' allocations only add.
func TestFirstSubmitAllocsFlatInN(t *testing.T) {
	body := []byte(`{"dataset":"x","weights":{"LanguageTest":1}}`)
	firstSubmit := func(ds *dataset.Dataset) uint64 {
		db, err := store.Open(filepath.Join(t.TempDir(), "srv.db"), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		s, err := New(db, WithJobWorkers(-1))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutDataset("x", ds); err != nil {
			t.Fatal(err)
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, _, err = s.decodeJob(body)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	least := func(n int) uint64 {
		ds := paperWorkers(t, n, 1)
		b := firstSubmit(ds)
		for range 2 {
			b = min(b, firstSubmit(ds))
		}
		return b
	}
	small, large := least(100), least(100_000)
	t.Logf("first submit allocates %d B at 100 workers, %d B at 100 000", small, large)
	if large > 2*small {
		t.Fatalf("first submit allocates %d B at 100 000 workers vs %d B at 100: O(N) work left", large, small)
	}
}

// TestDatasetContentStoredOnce: identical content under two names is one
// file and one mapping; a file goes when the last name holding it does.
func TestDatasetContentStoredOnce(t *testing.T) {
	s, ts, _ := newTestServer(t)
	a, b := paperWorkers(t, 50, 1), paperWorkers(t, 50, 2)
	uploadSnapshot(t, ts, "a", a)
	uploadSnapshot(t, ts, "b", a)
	files := snapFiles(t, s)
	if len(files) != 1 || filepath.Base(files[0]) != hexDigest(a)+".snap" {
		t.Fatalf("snapshot files %v, want one named by the digest", files)
	}
	s.mu.RLock()
	shared, mappings := s.datasets["a"] == s.datasets["b"], len(s.contents)
	s.mu.RUnlock()
	if !shared || mappings != 1 {
		t.Fatalf("shared mapping %v, %d mappings; want one", shared, mappings)
	}
	if code := doDelete(t, ts.URL+"/v1/datasets/a"); code != http.StatusNoContent {
		t.Fatalf("delete a = %d", code)
	}
	if len(snapFiles(t, s)) != 1 || getJSON(t, ts.URL+"/v1/datasets/b", nil) != http.StatusOK {
		t.Fatal("deleting one name took content another name holds")
	}
	uploadSnapshot(t, ts, "c", b)
	uploadSnapshot(t, ts, "b", b) // a's old content: no ref names it now
	files = snapFiles(t, s)
	if len(files) != 1 || filepath.Base(files[0]) != hexDigest(b)+".snap" {
		t.Fatalf("after replace: snapshot files %v, want only the new content", files)
	}
	doDelete(t, ts.URL+"/v1/datasets/b")
	doDelete(t, ts.URL+"/v1/datasets/c")
	if files := snapFiles(t, s); len(files) != 0 {
		t.Fatalf("files outlived every name: %v", files)
	}
}

// TestLegacyDatasetRecordMigrates boots a store holding a dataset as a
// legacy binary WAL record, written by that format's last writer: the
// record is registered like an upload and then dropped.
func TestLegacyDatasetRecordMigrates(t *testing.T) {
	raw, err := os.ReadFile("../dataset/testdata/paper-40-seed-42.frnkds1")
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Open(filepath.Join(t.TempDir(), "srv.db"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.Put(bucketDatasets, "legacy", raw); err != nil {
		t.Fatal(err)
	}
	s, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	if keys := db.Keys(bucketDatasets); len(keys) != 0 {
		t.Fatalf("legacy records left after boot: %v", keys)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	var info datasetInfo
	if code := getJSON(t, ts.URL+"/v1/datasets/legacy", &info); code != http.StatusOK || info.Workers != 40 {
		t.Fatalf("migrated dataset: %d %+v", code, info)
	}
	want := hexDigest(paperWorkers(t, 40, 42))
	if ref, _ := s.snaps.Ref("legacy"); ref.Digest != want || ref.File != want+".snap" {
		t.Fatalf("migrated ref %+v, want digest %s", ref, want)
	}
}

// TestDigestlessRefHashedOnce: a snapshot ref written before refs carried
// a digest is hashed at its first boot and rewritten in place, in one WAL
// put; its file keeps its name. The next boot reads the digest.
func TestDigestlessRefHashedOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "srv.db")
	db, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds := paperWorkers(t, 40, 42)
	var snap bytes.Buffer
	if err := ds.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(path+".snapshots", 0o755); err != nil {
		t.Fatal(err)
	}
	const file = "demo-0badf00d.snap"
	if err := os.WriteFile(filepath.Join(path+".snapshots", file), snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	ref, err := json.Marshal(store.SnapshotRef{Name: "demo", File: file, Size: int64(snap.Len())})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put("snapshots", "demo", ref); err != nil {
		t.Fatal(err)
	}
	boot := func(db *store.DB) (writes int) {
		t.Helper()
		_, before := db.Stats()
		s, err := New(db)
		if err != nil {
			t.Fatal(err)
		}
		_, after := db.Stats()
		got, _ := s.snaps.Ref("demo")
		if got.Digest != hexDigest(ds) || got.File != file {
			t.Fatalf("ref after boot %+v, want digest %s in file %s", got, hexDigest(ds), file)
		}
		s.mu.RLock()
		served := s.datasets["demo"]
		s.mu.RUnlock()
		if served.Digest() != ds.Digest() {
			t.Fatal("served mapping's digest differs from the content's")
		}
		return after - before // overwrites of live keys
	}
	if n := boot(db); n != 1 {
		t.Fatalf("first boot overwrote %d records, want the one ref", n)
	}
	db.Close()
	db2, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.Close() })
	if n := boot(db2); n != 0 {
		t.Fatalf("second boot overwrote %d records, want none", n)
	}
}

// TestShutdownUnmapsUnservedContent: Shutdown closes the mappings no name
// serves any more and keeps the served ones.
func TestShutdownUnmapsUnservedContent(t *testing.T) {
	s, ts, _ := newTestServer(t)
	uploadSnapshot(t, ts, "x", paperWorkers(t, 30, 1))
	uploadSnapshot(t, ts, "x", paperWorkers(t, 30, 2))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.contents) != 1 || s.contents[hexDigest(paperWorkers(t, 30, 2))] != s.datasets["x"] {
		t.Fatalf("after shutdown %d mappings remain, want only the served one", len(s.contents))
	}
}

// TestConcurrentRegistrationsAgree: registrations racing on one name,
// with submits resolving it meanwhile, leave the stored ref and the
// served mapping on the same content, and one file on disk.
func TestConcurrentRegistrationsAgree(t *testing.T) {
	s, _, _ := newTestServer(t)
	pops := []*dataset.Dataset{paperWorkers(t, 40, 1), paperWorkers(t, 40, 2)}
	if err := s.PutDataset("x", pops[0]); err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"dataset":"x","weights":{"LanguageTest":1}}`)
	var wg sync.WaitGroup
	for i := range 8 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := s.PutDataset("x", pops[i%2]); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, _, err := s.decodeJob(body); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	ref, _ := s.snaps.Ref("x")
	s.mu.RLock()
	served := digestOf(s.datasets["x"])
	s.mu.RUnlock()
	if ref.Digest != served {
		t.Fatalf("ref names %s, the server serves %s", ref.Digest, served)
	}
	if files := snapFiles(t, s); len(files) != 1 {
		t.Fatalf("snapshot files %v, want only the served content's", files)
	}
}
