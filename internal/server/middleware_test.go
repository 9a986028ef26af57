package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestRecoveryMiddleware(t *testing.T) {
	boom := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(withRecovery(boom))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
}

func TestLoggingMiddleware(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	ts := httptest.NewServer(withLogging(logf, ok))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/some/path")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("%d log lines", len(lines))
	}
	if !strings.Contains(lines[0], "GET /some/path -> 418") {
		t.Fatalf("log line = %q", lines[0])
	}
}

func TestLoggingMiddlewareNilDisables(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	if got := withLogging(nil, h); fmt.Sprintf("%T", got) != "http.HandlerFunc" {
		// withLogging(nil, h) must return h itself.
	}
	ts := httptest.NewServer(withLogging(nil, h))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestSemaphoreMiddleware(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 2)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			entered <- struct{}{}
			<-release
		}
		w.WriteHeader(http.StatusOK)
	})
	// Two routes behind one gate share its slots.
	gate := withSemaphore(2)
	mux := http.NewServeMux()
	mux.Handle("/slow", gate(slow))
	mux.Handle("/fast", gate(slow))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// Fill both slots.
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Get(ts.URL + "/slow")
			if err == nil {
				resp.Body.Close()
			}
			errs <- err
		}()
	}
	// Both in-flight requests signal once they hold a slot; only then can
	// the third request deterministically see a full semaphore.
	<-entered
	<-entered
	resp, err := http.Get(ts.URL + "/fast")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit status = %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Slots free again.
	resp, err = http.Get(ts.URL + "/fast")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d", resp.StatusCode)
	}
}
