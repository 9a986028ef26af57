package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/continuous_golden.txt from the current code")

const continuousGoldenPath = "testdata/continuous_golden.txt"

// continuousGolden lists the readouts pinned byte for byte: windows that
// retract and re-admit, a window of one, decays that rescale (a half-life
// of 0.5 events passes the rescale bound every ~330 events), a numeric
// attribute and a bin count other than 10. The long case, every protected
// attribute over 7,300 workers (~1,800 groups), takes about a minute, and
// minutes under -race; it runs outside -short and -race builds.
var continuousGolden = []struct {
	args     string
	gen      int
	bins     int
	attrs    string
	window   int
	halfLife float64
	long     bool
}{
	{"-gen 500 -window 100 -half-life 250", 500, 10, "", 100, 250, false},
	{"-gen 7300 -window 1000", 7300, 10, "", 1000, 0, true},
	{"-gen 2000 -half-life 50 -attrs Gender,YearOfBirth -bins 20", 2000, 20, "Gender,YearOfBirth", 0, 50, false},
	{"-gen 1000 -window 1 -half-life 0.5", 1000, 10, "", 1, 0.5, false},
	{"-gen 300 -window 40 -half-life 7 -attrs Country -bins 5", 300, 5, "Country", 40, 7, false},
}

// TestContinuousGolden pins the -window/-half-life readout byte for byte
// against testdata/continuous_golden.txt, one section per case. Run with
// -update to rewrite it, only for an intended change.
func TestContinuousGolden(t *testing.T) {
	var file bytes.Buffer
	want := map[string]string{}
	if !*updateGolden {
		raw, err := os.ReadFile(continuousGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		var key string
		for _, line := range strings.SplitAfter(string(raw), "\n") {
			if k, ok := strings.CutPrefix(line, "== "); ok {
				key = strings.TrimSuffix(k, "\n")
				continue
			}
			want[key] += line
		}
	}
	for _, c := range continuousGolden {
		if c.long && !*updateGolden && (testing.Short() || raceEnabled) {
			t.Logf("skipping %s under -short or -race", c.args)
			continue
		}
		var b bytes.Buffer
		if err := runContinuousCmd(&b, "", "", c.gen, 42, 0.5, "", c.bins, c.attrs, c.window, c.halfLife); err != nil {
			t.Fatalf("%s: %v", c.args, err)
		}
		fmt.Fprintf(&file, "== fairaudit %s\n%s", c.args, b.String())
		if got, ok := want["fairaudit "+c.args]; !*updateGolden && (!ok || got != b.String()) {
			t.Errorf("fairaudit %s: readout differs from %s:\n%s\nwant:\n%s", c.args, continuousGoldenPath, b.String(), got)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(continuousGoldenPath, file.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunContinuousReadout(t *testing.T) {
	var b bytes.Buffer
	if err := runContinuousCmd(&b, "", "", 200, 7, 0.5, "", 10, "", 50, 100); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"continuous audit: 200 join events, window 50, half-life 100",
		"total", "window", "decay", "final:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// A window covering the whole stream must equal the unbounded monitor
	// — the CLI-level echo of the metamorphic differential test.
	b.Reset()
	if err := runContinuousCmd(&b, "", "", 150, 7, 0.5, "", 10, "Gender", 150, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	last := ""
	for _, l := range lines {
		if strings.HasPrefix(l, "final:") {
			last = l
		}
	}
	fields := strings.Fields(last) // final: total X over N workers; window Y over the last N
	if len(fields) < 8 {
		t.Fatalf("unexpected final line %q", last)
	}
	tot, err1 := strconv.ParseFloat(fields[2], 64)
	win, err2 := strconv.ParseFloat(fields[7], 64)
	if err1 != nil || err2 != nil || tot != win {
		t.Fatalf("full-stream window %v != total %v (line %q)", win, tot, last)
	}
}

func TestRunContinuousValidation(t *testing.T) {
	var b bytes.Buffer
	if err := runContinuousCmd(&b, "", "", 50, 1, 0.5, "", 10, "Charisma", 20, 0); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	if err := runContinuousCmd(&b, "", "", 50, 1, 2.5, "", 10, "", 20, 0); err == nil {
		t.Fatal("bad alpha accepted")
	}
	if err := runContinuousCmd(&b, "", "", 50, 1, 0.5, "", 10, "", -3, 0); err == nil {
		t.Fatal("negative window accepted")
	}
}

// TestCLIContinuousFlags drives -window and -half-life through the flag
// path: a negative value is an error before the audit runs, a NaN
// half-life fails the watch's spec check, and a positive window follows
// the audit with the readout.
func TestCLIContinuousFlags(t *testing.T) {
	var b bytes.Buffer
	for _, args := range [][]string{
		{"-gen", "50", "-window", "-5"},
		{"-gen", "50", "-half-life", "-1"},
	} {
		err := cli(&b, args)
		if err == nil || !strings.Contains(err.Error(), "must be non-negative") {
			t.Fatalf("%v: got %v, want the non-negative error", args, err)
		}
		if b.Len() != 0 {
			t.Fatalf("%v: printed before the error:\n%s", args, b.String())
		}
	}
	if err := cli(&b, []string{"-gen", "50", "-half-life", "NaN"}); err == nil {
		t.Fatal("NaN half-life accepted")
	}
	b.Reset()
	if err := cli(&b, []string{"-gen", "50", "-window", "10"}); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); !strings.Contains(out, "balanced found unfairness") ||
		!strings.Contains(out, "\n\ncontinuous audit: 50 join events, window 10\n") {
		t.Fatalf("audit and readout missing:\n%s", out)
	}
}
