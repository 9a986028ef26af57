// Command fairserve runs the fairrank platform server: an HTTP API for
// dataset upload, task posting, filtered ranking and fairness audits,
// backed by the embedded append-only store.
//
// Usage:
//
//	fairserve -addr :8080 -db fairrank.db
//	fairserve -addr :8080 -db fairrank.db -bootstrap 500   # preload a demo population
//
// Clustered (every node lists every other node; see TUTORIAL.md §14):
//
//	fairserve -addr :8080 -db a.db -node-id node-a -advertise http://127.0.0.1:8080 \
//	    -peers http://127.0.0.1:8081,http://127.0.0.1:8082
//
// Then:
//
//	curl localhost:8080/healthz
//	curl -X POST localhost:8080/v1/tasks -d '{"id":"gig","dataset":"demo","weights":{"LanguageTest":1}}'
//	curl 'localhost:8080/v1/rank?task=gig&k=5&q=Gender%20%3D%20%27Female%27'
//	curl -X POST localhost:8080/v1/jobs -d '{"dataset":"demo","algorithm":"balanced","weights":{"LanguageTest":1}}'
//	curl localhost:8080/v1/jobs/job-000001          # poll until "state":"done"
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fairrank/internal/cluster"
	"fairrank/internal/server"
	"fairrank/internal/simulate"
	"fairrank/internal/store"
	"fairrank/internal/telemetry"
)

// bootstrapDemo generates a synthetic population and registers it as the
// dataset "demo", as an upload would, so a fresh server has something to
// rank and audit.
func bootstrapDemo(srv *server.Server, n int, seed uint64) error {
	ds, err := simulate.PaperWorkers(n, seed)
	if err != nil {
		return err
	}
	return srv.PutDataset("demo", ds)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("fairserve: ")
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		dbPath     = flag.String("db", "fairrank.db", "path to the embedded store")
		sync       = flag.Bool("sync", false, "fsync after every write")
		bootstrap  = flag.Int("bootstrap", 0, "preload a synthetic population of this size as dataset \"demo\"")
		seed       = flag.Uint64("seed", 42, "bootstrap generation seed")
		pprofOn    = flag.Bool("pprof", false, "expose /debug/pprof/ profiling endpoints")
		jobWorkers = flag.Int("job-workers", 2, "async audit job worker pool size")
		jobQueue   = flag.Int("job-queue", 64, "maximum queued+running async jobs (excess get 429)")
		drain      = flag.Duration("drain", 30*time.Second, "graceful-shutdown deadline for in-flight requests and jobs")
		nodeID     = flag.String("node-id", "", "stable cluster node name (required with -peers)")
		advertise  = flag.String("advertise", "", "base URL peers reach this node at, e.g. http://10.0.0.1:8080 (required with -peers)")
		peers      = flag.String("peers", "", "comma-separated peer base URLs; enables cluster mode")
	)
	flag.Parse()

	// One registry aggregates the store's, the HTTP layer's and the audit
	// engine's series into a single GET /metrics exposition; it is also
	// published under expvar for plain-JSON debugging.
	metrics := telemetry.NewRegistry()
	metrics.PublishExpvar("fairrank")

	db, err := store.Open(*dbPath, store.Options{Sync: *sync, Metrics: metrics})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	srvOpts := []server.ServerOption{
		server.WithRequestLog(log.Printf),
		server.WithMetrics(metrics),
		server.WithJobWorkers(*jobWorkers),
		server.WithJobQueueLimit(*jobQueue),
	}
	if *pprofOn {
		srvOpts = append(srvOpts, server.WithPprof())
	}
	srv, err := server.New(db, srvOpts...)
	if err != nil {
		log.Fatal(err)
	}
	if *bootstrap > 0 {
		if err := bootstrapDemo(srv, *bootstrap, *seed); err != nil {
			log.Fatal(err)
		}
		log.Printf("bootstrapped dataset %q with %d workers", "demo", *bootstrap)
	}

	if *peers != "" {
		if *nodeID == "" || *advertise == "" {
			log.Fatal("-peers requires both -node-id and -advertise")
		}
		var peerURLs []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peerURLs = append(peerURLs, p)
			}
		}
		if err := srv.EnableCluster(cluster.Config{
			Self:   *advertise,
			NodeID: *nodeID,
			Peers:  peerURLs,
		}); err != nil {
			log.Fatal(err)
		}
		log.Printf("cluster mode: node %s advertising %s with %d peers", *nodeID, *advertise, len(peerURLs))
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops admission (the
	// listener first, so nothing new arrives; then the job queue) and
	// drains in-flight work under the -drain deadline. Jobs that outlive
	// the deadline are parked durably and resume on the next start. A
	// second signal kills the process the old-fashioned way.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("listening on %s (store: %s)", *addr, *dbPath)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal is fatal
	log.Printf("shutting down (drain deadline %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("job queue drain: %v (unfinished jobs stay queued for the next start)", err)
	}
	if err := db.Sync(); err != nil && !errors.Is(err, store.ErrClosed) {
		log.Printf("store sync: %v", err)
	}
	log.Printf("bye")
}
