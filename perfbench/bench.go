package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"fairrank/internal/rng"
)

type config struct {
	base     string
	workload *workload
	seed     uint64
	seconds  time.Duration
	trace    bool
	setups   int
}

type metric struct {
	name, unit string
	value      float64
}

type output struct {
	info      []string
	metrics   []metric
	attempted int
	failed    int
}

// opStats collects one operation kind's latencies and outcomes.
type opStats struct {
	lat []time.Duration
	// byClass splits lat by the operation's class: the audit algorithm or
	// the page's re-ranker.
	byClass   map[string][]time.Duration
	attempted int
	failed    int
	// traced and plain split lat by whether the cycle was traced, for the
	// tracing-overhead estimate.
	traced, plain []time.Duration
}

// bench is the state of one run.
type bench struct {
	cfg     config
	w       *workload
	pop     *population
	rq      *requests
	nodes   []*node
	dir     string
	ops     map[string]*opStats
	tr      *tracer // nil outside traced cycles
	all     *tracer // every span of a traced run
	notes   []string
	failed  int // operations whose output check failed
	uploadS float64
	// respBytes and requests count the timed phase's responses.
	respBytes, requests int64

	audit auditState
	serve serveState
}

func run(cfg config) (*output, error) {
	w := cfg.workload
	b := &bench{cfg: cfg, w: w, ops: map[string]*opStats{}}
	b.dir = filepath.Join(cfg.base, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(b.dir)

	pop, err := loadPopulation(filepath.Join(cfg.base, "inputs"), w.workers, populationSeed)
	if err != nil {
		return nil, fmt.Errorf("population: %w", err)
	}
	defer pop.ds.Close()
	b.pop = pop
	if b.rq, err = w.inputs(rng.New(cfg.seed^0x9e3779b97f4a7c15), pop.ds, cfg.seconds); err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	b.rq.checksum = sumRequests(b.rq)

	// Set-up runs cfg.setups times on fresh processes and data
	// directories; the last one stays up for the timed phase.
	var setups []time.Duration
	for i := 0; i < cfg.setups; i++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("setup%d", i))
		d, err := b.setup(dir)
		if err != nil {
			b.stopNodes()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d)
		if i < cfg.setups-1 {
			b.stopNodes()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	defer b.stopNodes()
	// Flush the set-ups' file writes (up to 3 x 87 MB at 1M workers) now,
	// so kernel writeback does not compete with the timed phase.
	syscall.Sync()

	if cfg.trace {
		b.all = newTracer(time.Now())
	}
	before, err := b.readCounters()
	if err != nil {
		return nil, err
	}
	bytes0, reqs0 := b.traffic()
	cpu0 := cpuTime()
	t0 := time.Now()
	exhausted := true
	for i := 0; i < w.cycles(b.rq); i++ {
		// The clock is read only at period boundaries, so every run
		// measures whole input cycles and the same operation mix.
		if i%w.period == 0 && time.Since(t0) >= cfg.seconds {
			exhausted = false
			break
		}
		// A traced run traces every other period of cycles; the untraced
		// ones give the tracing-overhead baseline.
		b.tr = nil
		if cfg.trace && (i/w.period)%2 == 0 {
			b.tr = b.all
		}
		w.cycle(b, i)
	}
	b.tr = nil
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	bytes1, reqs1 := b.traffic()
	b.respBytes, b.requests = bytes1-bytes0, reqs1-reqs0
	if exhausted {
		b.notes = append(b.notes, "inputs exhausted before the clock ran out")
	}
	after, err := b.readCounters()
	if err != nil {
		return nil, err
	}
	var rss float64
	for _, n := range b.nodes {
		r, err := n.peakRSSMB()
		if err != nil {
			return nil, err
		}
		rss += r
	}

	// Output checks run after the clock stops, against in-process
	// references computed from the same inputs.
	if err := w.check(b); err != nil {
		return nil, fmt.Errorf("output check could not run: %w", err)
	}
	if cfg.trace {
		if err := w.sweep(b); err != nil {
			return nil, fmt.Errorf("layer sweep: %w", err)
		}
	}

	out := &output{}
	for _, s := range b.ops {
		out.attempted += s.attempted
		out.failed += s.failed
	}
	out.failed += b.failed
	if out.attempted == 0 {
		return nil, fmt.Errorf("no operation completed within %v", cfg.seconds)
	}
	d := nodeDelta{before, after}
	out.info = append(out.info, describeInputs(pop, b.rq))
	out.info = append(out.info, b.health(d, wall, cpu, out)...)
	out.info = append(out.info, b.named(wall)...)
	out.info = append(out.info, routeLine(d))
	if cfg.trace {
		out.metrics = b.layerMetrics(d, wall, cpu)
		path, err := b.all.write(filepath.Join(cfg.base, "traces"), w.name, cfg.seed)
		if err != nil {
			return nil, err
		}
		out.info = append(out.info, b.all.summary()...)
		out.info = append(out.info, "trace written to "+path)
	} else {
		prim, sec := b.ops[w.primary], b.ops[w.secondary]
		if prim == nil || sec == nil || len(prim.lat) == 0 || len(sec.lat) == 0 {
			return nil, fmt.Errorf("no successful %s or %s operation: %v", w.primary, w.secondary, b.notes)
		}
		out.metrics = []metric{
			{"setup_s", "s", quantile(setups, 0.5) / 1000},
			{"primary_p50_ms", "ms", prim.classMedian()},
			{"secondary_p50_ms", "ms", sec.classMedian()},
			{"primary_per_s", "1/s", float64(len(prim.lat)) / wall.Seconds()},
			{"rss_peak_mb", "MB", rss},
		}
		out.info = append(out.info, fmt.Sprintf("setup: runs=%v", setups))
	}
	return out, nil
}

// setup boots the workload's nodes under dir, runs its set-up and
// warm-up, and returns the time from process start to ready.
func (b *bench) setup(dir string) (time.Duration, error) {
	t0 := time.Now()
	if err := b.w.boot(b, dir); err != nil {
		return 0, err
	}
	if err := b.w.prepare(b); err != nil {
		return 0, err
	}
	for i := 0; i < b.w.warmCycles; i++ {
		if err := b.w.warm(b, i); err != nil {
			return 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return time.Since(t0), nil
}

// startNodes launches n fairserve processes; extra gives each one's
// additional flags given all nodes' URLs.
func (b *bench) startNodes(dir string, n int, extra func(i int, urls []string) []string) error {
	ports := make([]int, n)
	urls := make([]string, n)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return err
		}
		ports[i], urls[i] = p, fmt.Sprintf("http://127.0.0.1:%d", p)
	}
	bin := filepath.Join(b.cfg.base, "bin", "fairserve")
	for i := range ports {
		var flags []string
		if extra != nil {
			flags = extra(i, urls)
		}
		nd, err := startNode(bin, filepath.Join(dir, fmt.Sprintf("node%d", i)), ports[i], flags...)
		if err != nil {
			return err
		}
		b.nodes = append(b.nodes, nd)
	}
	return nil
}

// traffic sums response bytes and requests over nodes.
func (b *bench) traffic() (respBytes, requests int64) {
	for _, n := range b.nodes {
		respBytes += n.respBytes
		requests += n.requests
	}
	return
}

func (b *bench) stopNodes() {
	for _, n := range b.nodes {
		n.stop()
	}
	b.nodes = nil
}

// op times fn as one operation of kind and class and records its
// outcome.
func (b *bench) op(kind, class string, fn func() error) (time.Duration, error) {
	s := b.ops[kind]
	if s == nil {
		s = &opStats{byClass: map[string][]time.Duration{}}
		b.ops[kind] = s
	}
	s.attempted++
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if err != nil {
		s.failed++
		if len(b.notes) < 5 {
			b.notes = append(b.notes, fmt.Sprintf("%s failed: %v", kind, err))
		}
		return d, err
	}
	s.lat = append(s.lat, d)
	s.byClass[class] = append(s.byClass[class], d)
	if b.cfg.trace {
		if b.tr != nil {
			s.traced = append(s.traced, d)
		} else {
			s.plain = append(s.plain, d)
		}
	}
	return d, nil
}

// classMedian is the mean over classes of each class's median latency in
// ms. Audit algorithms and re-rankers differ in cost by up to 10x, so a
// median over all samples would follow whichever class sits in the middle.
func (s *opStats) classMedian() float64 {
	total := 0.0
	for _, lat := range s.byClass {
		total += median(lat)
	}
	return total / float64(len(s.byClass))
}

// checkFailed counts one operation whose output did not match.
func (b *bench) checkFailed(format string, args ...any) {
	b.failed++
	if len(b.notes) < 10 {
		b.notes = append(b.notes, "check failed: "+fmt.Sprintf(format, args...))
	}
}

// readCounters reads every node's /metrics and /debug/vars.
func (b *bench) readCounters() ([]counters, error) {
	out := make([]counters, len(b.nodes))
	for i, n := range b.nodes {
		c, err := n.counters()
		if err != nil {
			return nil, fmt.Errorf("read counters: %w", err)
		}
		out[i] = c
	}
	return out, nil
}

// nodeDelta is the timed phase's change in server-side counts, summed
// over nodes.
type nodeDelta struct {
	before, after []counters
}

func (d nodeDelta) sum(name string, filters ...string) float64 {
	total := 0.0
	for i := range d.after {
		total += d.after[i].sum(name, filters...) - d.before[i].sum(name, filters...)
	}
	return total
}

func (d nodeDelta) gc() (cycles, pauseNs, alloc float64) {
	for i := range d.after {
		cycles += float64(d.after[i].mem.NumGC - d.before[i].mem.NumGC)
		pauseNs += float64(d.after[i].mem.PauseTotalNs - d.before[i].mem.PauseTotalNs)
		alloc += float64(d.after[i].mem.TotalAlloc - d.before[i].mem.TotalAlloc)
	}
	return
}

// cpuTime is the generator's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// routes are the instrumented routes the generator calls in a timed
// phase.
var routes = []string{
	"POST /v1/jobs", "GET /v1/jobs/{id}", "POST /v1/rank", "POST /v1/monitors/{id}/events", sseRoute,
}

// sseRoute is the job event stream; its handler lives as long as the job
// runs, so server.request_ms leaves it out.
const sseRoute = "GET /v1/jobs/{id}/events"

// health prints operation counts per kind, the generator's CPU share,
// steals, queue wait and the error rate. A run with steals or queue wait
// is marked unsteady: its numbers are not comparable with steady runs.
func (b *bench) health(d nodeDelta, wall, cpu time.Duration, out *output) []string {
	kinds := make([]string, 0, len(b.ops))
	for k := range b.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var parts []string
	for _, k := range kinds {
		s := b.ops[k]
		parts = append(parts, fmt.Sprintf("%s=%d/%d/%d", k, s.attempted, s.attempted-s.failed, s.failed))
	}
	steals := d.sum("fairrank_cluster_steals_total")
	hydrations := d.sum("fairrank_cluster_hydrations_total")
	waitMs := median(b.audit.wait)
	steady := steals == 0 && hydrations == 0 && !(waitMs > 1)
	lines := []string{
		"health: ops(attempted/succeeded/failed) " + strings.Join(parts, " "),
		fmt.Sprintf("health: error_rate=%.6f check_failures=%d client.cpu_share=%.4f cluster.steals=%.0f cluster.hydrations=%.0f jobs.wait_ms=%.4f steady=%v",
			float64(out.failed)/float64(out.attempted), b.failed, cpu.Seconds()/wall.Seconds(), steals, hydrations, nanZero(waitMs), steady),
	}
	for _, n := range b.notes {
		lines = append(lines, "note: "+n)
	}
	return lines
}

// named prints the workload's metrics under the operation names used in
// README.md, with tail percentiles where at least ten samples lie beyond.
func (b *bench) named(wall time.Duration) []string {
	var parts []string
	for _, kind := range []string{b.w.primary, b.w.secondary} {
		s := b.ops[kind]
		if s == nil {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s_n=%d %s_p50_ms=%.4f", kind, len(s.lat), kind, median(s.lat)))
		if len(s.byClass) > 1 {
			classes := make([]string, 0, len(s.byClass))
			for c := range s.byClass {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			for _, c := range classes {
				parts = append(parts, fmt.Sprintf("%s_p50_ms.%s=%.4f", kind, c, median(s.byClass[c])))
			}
		}
		for _, q := range []float64{0.99, 0.9} {
			if v, ok := tail(s.lat, q); ok {
				parts = append(parts, fmt.Sprintf("%s_p%.0f_ms=%.4f", kind, q*100, v))
				break
			}
		}
		parts = append(parts, fmt.Sprintf("%s_per_s=%.4f", kind, float64(len(s.lat))/wall.Seconds()))
	}
	if s := b.ops["events"]; s != nil {
		parts = append(parts, fmt.Sprintf("events_applied_per_s=%.1f", float64(len(s.lat)*eventBatch)/wall.Seconds()))
	}
	if a := b.audit; len(a.run) > 0 {
		parts = append(parts, fmt.Sprintf("jobs.run_ms=%.4f", median(a.run)))
	}
	if hop, ok := b.audit.hop(); ok {
		parts = append(parts, fmt.Sprintf("cluster.hop_ms=%.4f", hop))
	}
	return []string{"named: " + strings.Join(parts, " ")}
}

// routeLine prints the server-side mean time of each route the timed
// phase called.
func routeLine(d nodeDelta) string {
	parts := []string{"server.request_ms by route:"}
	for _, r := range routes {
		label := fmt.Sprintf("route=%q", r)
		if n := d.sum("fairrank_http_request_seconds_count", label); n > 0 {
			parts = append(parts, fmt.Sprintf("%q=%.4f", r, 1000*d.sum("fairrank_http_request_seconds_sum", label)/n))
		}
	}
	return strings.Join(parts, " ")
}

func nanZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
