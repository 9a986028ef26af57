package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"fairrank/internal/core"
	"fairrank/internal/histogram"
	"fairrank/internal/partition"
)

// HistogramASCII renders a histogram as a horizontal bar chart, one line
// per bin, scaled so the fullest bin spans width characters.
func HistogramASCII(h *histogram.Histogram, width int) string {
	if width < 1 {
		width = 40
	}
	maxCount := 0.0
	for i := 0; i < h.Bins(); i++ {
		if c := h.Count(i); c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	for i := 0; i < h.Bins(); i++ {
		lo := h.Min() + float64(float64(i)*h.BinWidth()) // rounded: no multiply-add fuses
		hi := lo + h.BinWidth()
		bar := 0
		if maxCount > 0 {
			bar = int(h.Count(i) / maxCount * float64(width))
		}
		fmt.Fprintf(&b, "[%4.2f,%4.2f) %-*s %g\n", lo, hi, width, strings.Repeat("#", bar), h.Count(i))
	}
	return b.String()
}

// Partitioning renders a Figure-1 style view of a partitioning: each
// partition's label, size, and score histogram, plus the overall average
// pairwise distance. Partitions are sorted by label for stable output.
func Partitioning(w io.Writer, e *core.Evaluator, pt *partition.Partitioning) error {
	if pt == nil || len(pt.Parts) == 0 {
		return fmt.Errorf("report: empty partitioning")
	}
	schema := e.Dataset().Schema()
	parts := make([]*partition.Partition, len(pt.Parts))
	copy(parts, pt.Parts)
	sort.Slice(parts, func(i, j int) bool {
		return parts[i].Label(schema) < parts[j].Label(schema)
	})
	var b strings.Builder
	fmt.Fprintf(&b, "unfairness(P, %s) = %.3f over %d partitions\n\n",
		e.Func().Name(), e.Unfairness(pt), len(parts))
	for _, p := range parts {
		fmt.Fprintf(&b, "%s (n=%d)\n", p.Label(schema), p.Size())
		b.WriteString(HistogramASCII(e.Histogram(p), 40))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Tree renders the splitting decisions of a Result as an indented trace —
// the partitioning tree the algorithm walked.
func Tree(w io.Writer, e *core.Evaluator, res *core.Result) error {
	if res == nil {
		return fmt.Errorf("report: nil result")
	}
	schema := e.Dataset().Schema()
	var b strings.Builder
	fmt.Fprintf(&b, "%s: unfairness %.3f, %d partitions, %s\n",
		res.Algorithm, res.Unfairness, res.Partitioning.Size(), res.Elapsed)
	for i, s := range res.Steps {
		verdict := "rejected (stop)"
		if s.Accepted {
			verdict = "accepted"
		}
		name := "-"
		if s.Attribute >= 0 && s.Attribute < len(schema.Protected) {
			name = schema.Protected[s.Attribute].Name
		}
		fmt.Fprintf(&b, "  step %d: split on %-16s → %4d partitions, avg %.3f  [%s]\n",
			i+1, name, s.Partitions, s.AvgDistance, verdict)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
