package server

import (
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"time"
)

// statusRecorder captures the response status for request logging.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// handlers behind the instrumentation (notably the SSE job-event stream,
// which must Flush per event) reach the real connection's Flusher.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// withRecovery converts handler panics into 500 responses instead of
// killing the connection (and, under some servers, the process): a single
// malformed audit request must never take the platform down.
func withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				log.Printf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				writeErr(w, http.StatusInternalServerError, fmt.Errorf("internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withLogging logs one line per request: method, path, status, duration.
// logf is usually log.Printf; nil disables logging.
func withLogging(logf func(format string, args ...any), next http.Handler) http.Handler {
	if logf == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		logf("server: %s %s -> %d (%s)", r.Method, r.URL.Path, rec.status, time.Since(start).Round(time.Microsecond))
	})
}

// withSemaphore returns a middleware that bounds the concurrent requests
// through every handler it wraps to limit, shedding the excess with 429
// and a Retry-After hint — the same answer job admission gives.
func withSemaphore(limit int) func(http.Handler) http.Handler {
	sem := make(chan struct{}, limit)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
				next.ServeHTTP(w, r)
			default:
				w.Header().Set("Retry-After", "1")
				writeErr(w, http.StatusTooManyRequests,
					fmt.Errorf("too many concurrent requests (limit %d)", limit))
			}
		})
	}
}
