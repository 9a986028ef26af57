package main

import (
	"net/http/httptest"
	"path/filepath"
	"testing"

	"fairrank/internal/server"
	"fairrank/internal/store"
)

func TestBootstrapDemo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "boot.db")
	db, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := server.New(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := bootstrapDemo(srv, 50, 1); err != nil {
		t.Fatal(err)
	}
	// Bootstrap registers a snapshot like an upload; it writes no legacy
	// WAL record, whose size limit once capped the population.
	if keys := db.Keys("datasets"); len(keys) != 0 {
		t.Fatalf("bootstrap wrote legacy dataset records %v", keys)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/datasets/demo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("demo dataset = %d", resp.StatusCode)
	}
}

func TestBootstrapDemoValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "boot.db")
	db, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv, err := server.New(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := bootstrapDemo(srv, 0, 1); err == nil {
		t.Error("n=0 accepted")
	}
}
