package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fairrank/internal/jobs"
	"fairrank/internal/simulate"
	"fairrank/internal/store"
)

// Tests for the chunked, resumable snapshot upload path (upload.go): the
// four failure shapes a real client hits — interruption mid-chunk,
// duplicate retry, out-of-order arrival, and a server restart in the
// middle of a session — plus the one-shot streaming content type.

func snapshotBytes(t *testing.T, n int) []byte {
	t.Helper()
	ds, err := simulate.PaperWorkers(n, 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// createUpload starts a session and returns its token.
func createUpload(t *testing.T, ts *httptest.Server, name string, size int) string {
	t.Helper()
	resp, body := postJSON(t, ts.URL+"/v1/datasets/"+name+"/uploads", map[string]int{"size": size})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create upload status %d (%s)", resp.StatusCode, body)
	}
	var st uploadStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Token == "" || st.Size != int64(size) || st.Received != 0 {
		t.Fatalf("fresh session %+v", st)
	}
	return st.Token
}

// sendChunk posts data as the inclusive byte range [start, start+len-1].
// The caller owns the response body.
func sendChunk(t *testing.T, ts *httptest.Server, name, token string, data []byte, start, total int) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/datasets/"+name+"/chunks", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Upload-Token", token)
	req.Header.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", start, start+len(data)-1, total))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) uploadStatus {
	t.Helper()
	defer resp.Body.Close()
	var st uploadStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func assertDatasetWorkers(t *testing.T, ts *httptest.Server, name string, want int) {
	t.Helper()
	var info datasetInfo
	if code := getJSON(t, ts.URL+"/v1/datasets/"+name, &info); code != http.StatusOK {
		t.Fatalf("get dataset status %d", code)
	}
	if info.Workers != want {
		t.Fatalf("dataset has %d workers, want %d", info.Workers, want)
	}
}

func TestUploadChunkedHappyPathOutOfOrder(t *testing.T) {
	_, ts, _ := newTestServer(t)
	snap := snapshotBytes(t, 60)
	token := createUpload(t, ts, "big", len(snap))

	// Three chunks delivered last-first: coverage closes on the first
	// chunk's arrival, whatever the order.
	cut1, cut2 := len(snap)/3, 2*len(snap)/3
	chunks := []struct{ start, end int }{{cut2, len(snap)}, {cut1, cut2}, {0, cut1}}
	var sent int64
	for i, c := range chunks {
		resp := sendChunk(t, ts, "big", token, snap[c.start:c.end], c.start, len(snap))
		sent += int64(c.end - c.start)
		if i < len(chunks)-1 {
			st := decodeStatus(t, resp)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("chunk %d status %d", i, resp.StatusCode)
			}
			if st.Complete || st.Received != sent {
				t.Fatalf("after chunk %d: %+v, want received %d", i, st, sent)
			}
		} else if resp.StatusCode != http.StatusCreated {
			t.Fatalf("final chunk status %d", resp.StatusCode)
		} else {
			resp.Body.Close()
		}
	}
	assertDatasetWorkers(t, ts, "big", 60)
	// The session is consumed: further status queries 404.
	if code := getJSON(t, ts.URL+"/v1/datasets/big/uploads/"+token, nil); code != http.StatusNotFound {
		t.Fatalf("status after finalize = %d, want 404", code)
	}
}

func TestUploadChunkInterruptedMidChunk(t *testing.T) {
	_, ts, _ := newTestServer(t)
	snap := snapshotBytes(t, 40)
	token := createUpload(t, ts, "d", len(snap))
	half := len(snap) / 2

	// A truncated body — the client died mid-chunk. The promised range
	// must not be recorded.
	resp := sendChunk(t, ts, "d", token, snap[:half/2], 0, len(snap))
	// Header promised [0, half), body carried only half/2 bytes.
	resp.Body.Close()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/datasets/d/chunks", bytes.NewReader(snap[:half/2]))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Upload-Token", token)
	req.Header.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", 0, half-1, len(snap)))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short chunk status %d, want 400", resp.StatusCode)
	}
	var st uploadStatus
	if code := getJSON(t, ts.URL+"/v1/datasets/d/uploads/"+token, &st); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if st.Received != int64(half/2) {
		// Only the first, fully-delivered chunk counts.
		t.Fatalf("received %d after interrupted chunk, want %d", st.Received, half/2)
	}

	// Retrying the interrupted range in full, then the rest, completes.
	resp = sendChunk(t, ts, "d", token, snap[half/2:half], half/2, len(snap))
	resp.Body.Close()
	resp = sendChunk(t, ts, "d", token, snap[half:], half, len(snap))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("final chunk status %d", resp.StatusCode)
	}
	assertDatasetWorkers(t, ts, "d", 40)
}

func TestUploadChunkDuplicateRetry(t *testing.T) {
	_, ts, _ := newTestServer(t)
	snap := snapshotBytes(t, 40)
	token := createUpload(t, ts, "d", len(snap))
	half := len(snap) / 2

	// The client's response to chunk 1 was lost, so it sends it again.
	for i := 0; i < 2; i++ {
		resp := sendChunk(t, ts, "d", token, snap[:half], 0, len(snap))
		st := decodeStatus(t, resp)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("chunk status %d", resp.StatusCode)
		}
		if st.Received != int64(half) {
			t.Fatalf("received %d after %d sends, want %d (idempotent)", st.Received, i+1, half)
		}
	}
	resp := sendChunk(t, ts, "d", token, snap[half:], half, len(snap))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("final chunk status %d", resp.StatusCode)
	}
	assertDatasetWorkers(t, ts, "d", 40)
}

func TestUploadResumesAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/srv.db"
	db, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())

	snap := snapshotBytes(t, 60)
	token := createUpload(t, ts1, "big", len(snap))
	third := len(snap) / 3
	resp := sendChunk(t, ts1, "big", token, snap[:third], 0, len(snap))
	resp.Body.Close()

	// The process dies mid-upload.
	ts1.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

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

	// The session survived: same token, first chunk still counted, the
	// status reply tells the client exactly what is missing.
	var st uploadStatus
	if code := getJSON(t, ts2.URL+"/v1/datasets/big/uploads/"+token, &st); code != http.StatusOK {
		t.Fatalf("status after restart %d", code)
	}
	if st.Received != int64(third) || st.Complete {
		t.Fatalf("after restart: %+v", st)
	}
	if len(st.Missing) != 1 || st.Missing[0].Start != int64(third) || st.Missing[0].End != int64(len(snap)) {
		t.Fatalf("missing after restart: %+v", st.Missing)
	}

	resp = sendChunk(t, ts2, "big", token, snap[third:], third, len(snap))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("final chunk status %d", resp.StatusCode)
	}
	assertDatasetWorkers(t, ts2, "big", 60)

	// And the finalized dataset is audit-ready.
	runJob(t, ts2.URL, map[string]any{
		"dataset": "big",
		"weights": map[string]float64{"LanguageTest": 1, "ApprovalRate": 1},
	})
}

func TestUploadCorruptSnapshotRejectedAtFinalize(t *testing.T) {
	_, ts, _ := newTestServer(t)
	snap := snapshotBytes(t, 40)
	snap[len(snap)/2] ^= 0xFF // corrupt a column byte: checksums must catch it
	token := createUpload(t, ts, "bad", len(snap))
	resp := sendChunk(t, ts, "bad", token, snap, 0, len(snap))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt finalize status %d, want 422", resp.StatusCode)
	}
	// Nothing registered, session consumed.
	if code := getJSON(t, ts.URL+"/v1/datasets/bad", nil); code != http.StatusNotFound {
		t.Fatalf("corrupt dataset registered (status %d)", code)
	}
	if code := getJSON(t, ts.URL+"/v1/datasets/bad/uploads/"+token, nil); code != http.StatusNotFound {
		t.Fatalf("session survived failed finalize (status %d)", code)
	}
}

func TestUploadSnapshotOneShot(t *testing.T) {
	_, ts, _ := newTestServer(t)
	snap := snapshotBytes(t, 50)
	resp, err := http.Post(ts.URL+"/v1/datasets/one", contentTypeSnapshot, bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("one-shot snapshot upload status %d", resp.StatusCode)
	}
	assertDatasetWorkers(t, ts, "one", 50)
}

// TestJobBySnapshotReference: a submitted spec names a dataset, never a
// snapshot, and never pins content itself — a "snapshot" or "digest" key
// answers 400. A job recorded while specs could name a snapshot recovers
// as a job on the dataset of that name; without a pinned digest it runs
// whatever the name holds when it runs.
func TestJobBySnapshotReference(t *testing.T) {
	path := filepath.Join(t.TempDir(), "srv.db")
	db, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	putDataset(t, s, "demo", 60)
	ts := httptest.NewServer(s.Handler())
	weights := map[string]float64{"LanguageTest": 1, "ApprovalRate": 2}
	for _, spec := range []map[string]any{
		{"snapshot": "demo", "weights": weights},
		{"dataset": "demo", "digest": "", "weights": weights},
	} {
		if resp, body := postJSON(t, ts.URL+"/v1/jobs", spec); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit %v: %d (%s), want 400", spec, resp.StatusCode, body)
		}
	}
	want := runJob(t, ts.URL, map[string]any{"dataset": "demo", "weights": weights})
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	db.Close()

	db2, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.Close() })
	legacy := `{"id":"job-000100","spec_hash":"legacy-key","spec":{"snapshot":"demo",` +
		`"weights":{"LanguageTest":1,"ApprovalRate":2}},"priority":0,"state":"queued",` +
		`"attempt":0,"max_attempts":3,"enqueued_at":"2026-01-02T03:04:05Z"}`
	if err := db2.Put("jobs", "job-000100", []byte(legacy)); err != nil {
		t.Fatal(err)
	}
	s2, err := New(db2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	done := waitJobHTTP(t, ts2.URL, "job-000100", jobs.StateDone)
	if done.Spec.Dataset != "demo" || done.Spec.Digest != "" {
		t.Fatalf("recovered spec %+v, want dataset demo and no digest", done.Spec)
	}
	if !bytes.Equal(done.Result, want.Result) {
		t.Fatalf("recovered result %s, want %s", done.Result, want.Result)
	}
}

// TestUploadConcurrentFinalChunkSingleFinalizer: several identical
// retries of the coverage-closing chunk race each other. Exactly one
// request may finalize (201); the rest must bounce off the closed
// session (409, or 404 once it is consumed) — never a spurious 422/500
// from a double finalize, and never a write into the adopted snapshot.
func TestUploadConcurrentFinalChunkSingleFinalizer(t *testing.T) {
	_, ts, _ := newTestServer(t)
	snap := snapshotBytes(t, 60)
	token := createUpload(t, ts, "big", len(snap))
	half := len(snap) / 2
	resp := sendChunk(t, ts, "big", token, snap[:half], 0, len(snap))
	resp.Body.Close()

	const racers = 8
	codes := make(chan int, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/datasets/big/chunks", bytes.NewReader(snap[half:]))
			if err != nil {
				codes <- -1
				return
			}
			req.Header.Set("Upload-Token", token)
			req.Header.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", half, len(snap)-1, len(snap)))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	created := 0
	for code := range codes {
		switch code {
		case http.StatusCreated:
			created++
		case http.StatusConflict, http.StatusNotFound:
			// Lost the race after or before the winner finalized.
		default:
			t.Fatalf("racing final chunk answered %d, want 201/409/404", code)
		}
	}
	if created != 1 {
		t.Fatalf("%d racing final chunks finalized, want exactly 1", created)
	}
	assertDatasetWorkers(t, ts, "big", 60)
}

// TestUploadSessionCapAndExpiry: session count is capped, and creating a
// new session sweeps idle-expired sessions (removing their spills) to
// make room under the cap.
func TestUploadSessionCapAndExpiry(t *testing.T) {
	srv, ts, _ := newTestServer(t)
	tokens := make([]string, 0, maxUploadSessions)
	for i := 0; i < maxUploadSessions; i++ {
		tokens = append(tokens, createUpload(t, ts, "d", 4096))
	}
	resp, body := postJSON(t, ts.URL+"/v1/datasets/d/uploads", map[string]int{"size": 4096})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("create beyond cap: %d (%s), want 429", resp.StatusCode, body)
	}

	// Age every session past the TTL; the next create sweeps them.
	srv.mu.Lock()
	for _, sess := range srv.sessions {
		sess.Updated -= int64(2 * uploadSessionTTL / time.Second)
	}
	spill := srv.sessions[tokens[0]].spillPath(srv.uploadDir)
	srv.mu.Unlock()

	createUpload(t, ts, "d", 4096)
	if code := getJSON(t, ts.URL+"/v1/datasets/d/uploads/"+tokens[0], nil); code != http.StatusNotFound {
		t.Fatalf("expired session status = %d, want 404", code)
	}
	if _, err := os.Stat(spill); !os.IsNotExist(err) {
		t.Fatalf("expired session spill still on disk (err=%v)", err)
	}
}

func TestUploadAbortDiscardsSession(t *testing.T) {
	_, ts, _ := newTestServer(t)
	snap := snapshotBytes(t, 40)
	token := createUpload(t, ts, "d", len(snap))
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/datasets/d/uploads/"+token, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("abort status %d", resp.StatusCode)
	}
	resp = sendChunk(t, ts, "d", token, snap, 0, len(snap))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("chunk after abort status %d, want 404", resp.StatusCode)
	}
}
