package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fairrank/internal/store"
)

func TestServerOptions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "opts.db")
	db, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var mu sync.Mutex
	var logged []string
	s, err := New(db,
		WithRequestLog(func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logged = append(logged, fmt.Sprintf(format, args...))
		}))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], "GET /healthz -> 200") {
		t.Fatalf("request log = %v", logged)
	}
}

func TestNewRejectsCorruptSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.db")
	db, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// A ref whose file is not a valid snapshot.
	digest := strings.Repeat("ab", 32)
	if err := os.MkdirAll(path+".snapshots", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path+".snapshots", digest+".snap"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	ref := `{"name":"broken","digest":"` + digest + `","file":"` + digest + `.snap","size":7}`
	if err := db.Put("snapshots", "broken", []byte(ref)); err != nil {
		t.Fatal(err)
	}
	if _, err := New(db); err == nil {
		t.Fatal("corrupt snapshot accepted on reload")
	}
}

func TestUploadTooLargeBody(t *testing.T) {
	// Exercise the unreadable-body path with a request that lies about
	// its content length.
	_, ts, _ := newTestServer(t)
	req, err := http.NewRequest("POST", ts.URL+"/v1/datasets/x", strings.NewReader("short"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentTypeSnapshot)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short garbage upload = %d", resp.StatusCode)
	}
}

func doDelete(t *testing.T, url string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestDeleteEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t)
	uploadDataset(t, ts, "workers", 40)
	postJSON(t, ts.URL+"/v1/tasks", map[string]any{
		"id": "t1", "dataset": "workers",
		"weights": map[string]float64{"LanguageTest": 1},
	})

	// Dataset with live task: refused.
	if code := doDelete(t, ts.URL+"/v1/datasets/workers"); code != http.StatusConflict {
		t.Fatalf("delete referenced dataset = %d, want 409", code)
	}
	// Delete the task, then the dataset.
	if code := doDelete(t, ts.URL+"/v1/tasks/t1"); code != http.StatusNoContent {
		t.Fatalf("delete task = %d", code)
	}
	if code := doDelete(t, ts.URL+"/v1/tasks/t1"); code != http.StatusNotFound {
		t.Fatalf("double delete task = %d", code)
	}
	if code := doDelete(t, ts.URL+"/v1/datasets/workers"); code != http.StatusNoContent {
		t.Fatalf("delete dataset = %d", code)
	}
	if code := doDelete(t, ts.URL+"/v1/datasets/workers"); code != http.StatusNotFound {
		t.Fatalf("double delete dataset = %d", code)
	}
	var list []map[string]any
	if code := getJSON(t, ts.URL+"/v1/datasets", &list); code != 200 || len(list) != 0 {
		t.Fatalf("datasets after delete = %v", list)
	}
}
