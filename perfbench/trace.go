package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the generator around
// the layer's public entry point. Spans of one operation share Op; Parent
// is the enclosing span's ID (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	// Start and End are microseconds since the run's timed phase began.
	Start int64 `json:"start_us"`
	End   int64 `json:"end_us"`
}

func (s span) dur() time.Duration { return time.Duration(s.End-s.Start) * time.Microsecond }

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Microseconds() }

// record adds a span with explicit bounds and returns its ID.
func (t *tracer) record(name string, parent, op int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.since(start), End: t.since(end)})
	return id
}

// do times fn as a span under parent. A nil tracer just calls fn.
func (t *tracer) do(name string, parent, op int, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	t.record(name, parent, op, start, time.Now())
}

// open starts a span whose end is set by close; for spans with children.
func (t *tracer) open(name string, parent, op int) int { return t.openAt(name, parent, op, time.Now()) }

// openAt is open for a span that began at start.
func (t *tracer) openAt(name string, parent, op int, start time.Time) int {
	return t.record(name, parent, op, start, start)
}

func (t *tracer) close(id int) { t.spans[id-1].End = t.since(time.Now()) }

// layerStats aggregates spans by name.
type layerStats struct {
	calls int
	total time.Duration
	self  time.Duration
}

// stats returns, per span name, the call count, total time, and self
// time: each span's duration minus the part its children cover.
func (t *tracer) stats() map[string]*layerStats {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]*layerStats{}
	for _, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStats{}
			out[s.Name] = st
		}
		st.calls++
		st.total += s.dur()
		st.self += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is how much of parent's interval its children cover, counting
// overlapping children once.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curStart, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	total += curEnd - curStart
	return time.Duration(total) * time.Microsecond
}

// write dumps the spans as JSON under dir and returns the file path.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}

// summary renders the per-name table printed with a traced run.
func (t *tracer) summary() []string {
	st := t.stats()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	lines := []string{"trace: name calls mean_ms self_ms_per_call"}
	for _, n := range names {
		s := st[n]
		lines = append(lines, fmt.Sprintf("trace: %s %d %.4f %.4f", n, s.calls,
			ms(s.total)/float64(s.calls), ms(s.self)/float64(s.calls)))
	}
	return lines
}
