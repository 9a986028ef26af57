package main

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"
)

// lines renders (sub-benchmark, ns/op) pairs as go test -bench output and
// parses it back.
func lines(pairs ...[2]interface{}) []line {
	var b strings.Builder
	b.WriteString("goos: linux\n")
	for _, p := range pairs {
		fmt.Fprintf(&b, "BenchmarkTelemetryOverhead/%s-8 \t 5\t %v ns/op\n", p[0], p[1])
	}
	b.WriteString("PASS\n")
	return parse(b.String())
}

func TestParseLine(t *testing.T) {
	cases := []struct {
		s    string
		want line
		ok   bool
	}{
		{"BenchmarkTelemetryOverhead/telemetry=off-8 \t 12\t  95102458 ns/op\t 1024 B/op\t 17 allocs/op",
			line{"BenchmarkTelemetryOverhead/telemetry=off", 95102458}, true},
		{"BenchmarkEMDPair 100 250.5 ns/op", line{"BenchmarkEMDPair", 250.5}, true},
		{"BenchmarkCodec-4 50 1000 ns/op 256.00 MB/s", line{"BenchmarkCodec", 1000}, true},
		{"BenchmarkDrift/order=ab/alarms=on-2 20000 310.4 ns/op", line{"BenchmarkDrift/order=ab/alarms=on", 310.4}, true},
		{"goos: linux", line{}, false},
		{"PASS", line{}, false},
		{"ok  \tfairrank\t1.2s", line{}, false},
		{"BenchmarkBroken x ns/op", line{}, false},
		{"BenchmarkNoUnit 10 123", line{}, false},
	}
	for _, c := range cases {
		got, ok := parseLine(c.s)
		if ok != c.ok || got != c.want {
			t.Errorf("parseLine(%q) = %+v, %v; want %+v, %v", c.s, got, ok, c.want, c.ok)
		}
	}
}

func TestParseKeepsRepeats(t *testing.T) {
	res := parse("goos: linux\n" +
		"BenchmarkX-8 10 100 ns/op\n" +
		"BenchmarkX-8 10 110 ns/op\n" +
		"BenchmarkY-8 10 50 ns/op\n" +
		"PASS\n")
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3: %+v", len(res), res)
	}
	if res[0].name != "BenchmarkX" || res[1].nsPerOp != 110 || res[2].name != "BenchmarkY" {
		t.Errorf("unexpected results: %+v", res)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestComparePairedRatios(t *testing.T) {
	in := lines(
		[2]interface{}{"telemetry=off", 100},
		[2]interface{}{"telemetry=on", 103},
		[2]interface{}{"telemetry=off", 100},
		[2]interface{}{"telemetry=on", 105},
		[2]interface{}{"telemetry=off", 100},
		[2]interface{}{"telemetry=on", 103},
	)
	base, cand, overhead, err := compare(in, "telemetry=off", "telemetry=on")
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 3 || len(cand) != 3 {
		t.Errorf("run counts = %d / %d, want 3 / 3", len(base), len(cand))
	}
	if math.Abs(overhead-3) > 1e-9 {
		t.Errorf("overhead = %v%%, want 3%% (median ratio)", overhead)
	}
}

func TestComparePairingCancelsDrift(t *testing.T) {
	// Round 2 runs on a machine twice as loaded as round 1; the absolute
	// numbers double but the per-round ratio stays 1%, and that is what
	// the gate must see.
	in := lines(
		[2]interface{}{"telemetry=off", 10000},
		[2]interface{}{"telemetry=on", 10100},
		[2]interface{}{"telemetry=off", 20000},
		[2]interface{}{"telemetry=on", 20200},
	)
	_, _, overhead, err := compare(in, "telemetry=off", "telemetry=on")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(overhead-1) > 1e-9 {
		t.Errorf("overhead = %v%%, want 1%%", overhead)
	}
}

func TestCompareNegativeOverhead(t *testing.T) {
	in := lines(
		[2]interface{}{"telemetry=off", 100},
		[2]interface{}{"telemetry=on", 95},
	)
	_, _, overhead, err := compare(in, "telemetry=off", "telemetry=on")
	if err != nil {
		t.Fatal(err)
	}
	if overhead >= 0 {
		t.Errorf("overhead = %v%%, want negative", overhead)
	}
}

func TestCompareMissingSeries(t *testing.T) {
	in := lines([2]interface{}{"telemetry=off", 100})
	if _, _, _, err := compare(in, "telemetry=off", "telemetry=on"); err == nil {
		t.Fatal("expected error with no candidate runs")
	}
	if _, _, _, err := compare(parse("PASS\n"), "off", "on"); err == nil {
		t.Fatal("expected error with empty input")
	}
}

// Each round emits the same lines, so arms of different sizes mean a
// substring matched lines it should not: an error, not a comparison.
func TestCompareUnequalArms(t *testing.T) {
	in := lines(
		[2]interface{}{"telemetry=off", 100},
		[2]interface{}{"telemetry=off", 102},
		[2]interface{}{"telemetry=off", 90},
		[2]interface{}{"telemetry=on", 104},
		[2]interface{}{"telemetry=on", 102},
	)
	if _, _, _, err := compare(in, "telemetry=off", "telemetry=on"); err == nil {
		t.Fatal("expected error with 3 baseline and 2 candidate runs")
	}
	if r := evaluate(gate{Baseline: "telemetry=off", Candidate: "telemetry=on", BoundPct: 5}, in, nil); r.Verdict != "error" {
		t.Errorf("verdict = %q, want error", r.Verdict)
	}
}

// Every row fails on its own arms 2 points past its bound and passes 2
// points inside it.
func TestGateBounds(t *testing.T) {
	for _, g := range gates {
		if _, err := regexp.Compile(g.Bench); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
		for _, c := range []struct {
			delta float64
			want  string
		}{{2, "fail"}, {-2, "pass"}} {
			cand := 1000 * (1 + (g.BoundPct+c.delta)/100)
			var pairs [][2]interface{}
			for i := 0; i < 3; i++ {
				pairs = append(pairs, [2]interface{}{g.Baseline, 1000}, [2]interface{}{g.Candidate, cand})
			}
			if r := evaluate(g, lines(pairs...), nil); r.Verdict != c.want {
				t.Errorf("%s at %+.0f%% past its %v%% bound: verdict %q (%+.2f%%, %s), want %q",
					g.Name, c.delta, g.BoundPct, r.Verdict, r.OverheadPct, r.Error, c.want)
			}
		}
	}
}

func TestSelectGates(t *testing.T) {
	all, err := selectGates(nil)
	if err != nil || len(all) != len(gates) {
		t.Fatalf("no names: %d gates, %v; want all %d", len(all), err, len(gates))
	}
	got, err := selectGates([]string{"drift-alarm", "average"})
	if err != nil || len(got) != 2 || got[0].Name != "average" || got[1].Name != "drift-alarm" {
		t.Errorf("selectGates(drift-alarm, average) = %+v, %v; want average, drift-alarm", got, err)
	}
	if _, err := selectGates([]string{"bench-drift"}); err == nil {
		t.Error("expected error for an unknown gate")
	}
}
