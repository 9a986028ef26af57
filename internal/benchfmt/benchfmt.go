// Package benchfmt parses the text output of `go test -bench`, the
// common input of cmd/benchjson (benchmark → JSON artifact) and
// cmd/benchdiff (telemetry-overhead gate). Only the stable benchmark
// result lines are interpreted; everything else (goos/goarch headers,
// PASS/ok trailers, log noise) is skipped.
package benchfmt

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line, e.g.
//
//	BenchmarkTelemetryOverhead/telemetry=off-8  12  95102458 ns/op  1024 B/op  17 allocs/op
type Result struct {
	Name        string  `json:"name"`       // without the trailing -GOMAXPROCS
	Procs       int     `json:"procs"`      // GOMAXPROCS suffix, 1 if absent
	Iterations  int64   `json:"iterations"` // b.N
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`  // -1 when run without -benchmem
	AllocsPerOp int64   `json:"allocs_per_op"` // -1 when run without -benchmem
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
}

// ParseLine parses a single benchmark result line. The second return is
// false for lines that are not benchmark results.
func ParseLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	r := Result{Name: fields[0], Procs: 1, BytesPerOp: -1, AllocsPerOp: -1}
	// The -N suffix is GOMAXPROCS; sub-benchmark names may themselves
	// contain dashes, so only a trailing all-digit segment counts.
	if i := strings.LastIndexByte(r.Name, '-'); i > 0 {
		if p, err := strconv.Atoi(r.Name[i+1:]); err == nil && p > 0 {
			r.Name, r.Procs = r.Name[:i], p
		}
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || n <= 0 {
		return Result{}, false
	}
	r.Iterations = n
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp, sawNs = v, true
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		case "MB/s":
			r.MBPerSec = v
		}
	}
	if !sawNs {
		return Result{}, false
	}
	return r, true
}

// Parse reads `go test -bench` output and returns every benchmark
// result, in input order. Repeated names (from -count) are kept as
// separate entries.
func Parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		if res, ok := ParseLine(sc.Text()); ok {
			out = append(out, res)
		}
	}
	return out, sc.Err()
}

// Median returns the median of xs, or 0 for an empty slice. The input
// is not modified.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
