package main

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

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

// TestHTTPServerClosesStalledHeader: fairserve's server sets header and
// idle timeouts and leaves read and write timeouts unset, and a client
// that stops mid-header has its connection closed once the header
// timeout (shortened here) passes.
func TestHTTPServerClosesStalledHeader(t *testing.T) {
	srv := newHTTPServer("", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 || srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("timeouts: header %v, idle %v, read %v, write %v", srv.ReadHeaderTimeout, srv.IdleTimeout, srv.ReadTimeout, srv.WriteTimeout)
	}
	srv.ReadHeaderTimeout = 200 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: fairserve\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(make([]byte, 1))
	var ne net.Error
	if n != 0 || err == nil || (errors.As(err, &ne) && ne.Timeout()) {
		t.Fatalf("read after a stalled header = %d bytes, %v; want the server to close the connection", n, err)
	}
}
