// Package scoring implements the task-qualification scoring functions of
// the paper: linear combinations f(w) = Σ αᵢ·bᵢ of observed attributes
// (Definition 1), plus the rule-based "unfair by design" functions of the
// qualitative study (f6–f9), and adapters for arbitrary user functions.
//
// All scores are in [0,1]. Observed attribute values are normalized into
// [0,1] by their schema range before weighting, which is what makes the
// paper's f = α·LanguageTest + (1-α)·ApprovalRate land in [0,1] even though
// both attributes live in [25,100].
package scoring

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"fairrank/internal/dataset"
)

// Func scores workers of a dataset. Implementations must be deterministic:
// Score must return the same value for the same (dataset, worker) pair.
type Func interface {
	// Name identifies the function in reports and experiment tables.
	Name() string
	// Score returns worker i's task-qualification score in [0,1].
	Score(ds *dataset.Dataset, i int) float64
}

// ScoreFunc adapts a plain function into a Func.
type ScoreFunc struct {
	// FuncName is returned by Name.
	FuncName string
	// Fn computes the score.
	Fn func(ds *dataset.Dataset, i int) float64
}

// Name implements Func.
func (s ScoreFunc) Name() string { return s.FuncName }

// Score implements Func.
func (s ScoreFunc) Score(ds *dataset.Dataset, i int) float64 { return s.Fn(ds, i) }

// Linear is the paper's scoring function: a weighted sum of observed
// attributes, each normalized to [0,1] by its schema range. Weights must be
// non-negative; they are normalized to sum to 1 so the score stays in [0,1].
// A weight of zero means the attribute is irrelevant to the user's ranking.
type Linear struct {
	name    string
	weights map[string]float64 // by observed attribute name, normalized
	// terms is the weight table in sorted attribute order — the fixed
	// summation order both Score and ScoreColumn use, so per-row and
	// columnar evaluation are bit-identical and deterministic regardless
	// of map iteration order.
	terms []linearTerm
}

type linearTerm struct {
	attr string
	w    float64
}

// NewLinear builds a linear scoring function from attribute-name → weight.
// At least one weight must be positive; negative or NaN weights are
// rejected. Attribute existence is checked lazily against the dataset at
// scoring time via Bind, or eagerly with Validate.
func NewLinear(name string, weights map[string]float64) (*Linear, error) {
	if len(weights) == 0 {
		return nil, errors.New("scoring: linear function needs at least one weight")
	}
	total := 0.0
	for attr, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("scoring: invalid weight %v for %q", w, attr)
		}
		total += w
	}
	if total == 0 {
		return nil, errors.New("scoring: all weights are zero")
	}
	norm := make(map[string]float64, len(weights))
	terms := make([]linearTerm, 0, len(weights))
	for attr, w := range weights {
		norm[attr] = w / total
		terms = append(terms, linearTerm{attr: attr, w: w / total})
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].attr < terms[j].attr })
	return &Linear{name: name, weights: norm, terms: terms}, nil
}

// Name implements Func.
func (l *Linear) Name() string { return l.name }

// Weights returns the normalized weights (summing to 1).
func (l *Linear) Weights() map[string]float64 {
	out := make(map[string]float64, len(l.weights))
	for k, v := range l.weights {
		out[k] = v
	}
	return out
}

// Validate checks that every weighted attribute exists in the schema as an
// observed attribute.
func (l *Linear) Validate(schema *dataset.Schema) error {
	for attr := range l.weights {
		if schema.ObservedIndex(attr) < 0 {
			return fmt.Errorf("scoring: %q is not an observed attribute", attr)
		}
	}
	return nil
}

// Score implements Func. Weighted attributes missing from the dataset's
// schema contribute zero (Validate catches this up front when wanted).
// Terms accumulate in sorted attribute order — the same order ScoreColumn
// uses — so both paths round identically.
func (l *Linear) Score(ds *dataset.Dataset, i int) float64 {
	s := 0.0
	schema := ds.Schema()
	for _, t := range l.terms {
		if t.w == 0 {
			continue
		}
		a := schema.ObservedIndex(t.attr)
		if a < 0 {
			continue
		}
		def := schema.Observed[a]
		v := ds.Observed(a, i)
		// The conversion rounds the product before the add, so no
		// architecture fuses the two into one multiply-add.
		s += float64(t.w * normalize(v, def.Min, def.Max))
	}
	return clamp01(s)
}

// ScoreColumn computes the whole score column with ScoreBlock over one
// block, so it is bit-identical to calling Score for every worker.
func (l *Linear) ScoreColumn(ds *dataset.Dataset) []float64 {
	out := make([]float64, ds.N())
	l.ScoreBlock(ds, 0, out)
	return out
}

// ScoreBlock writes the scores of workers lo, lo+1, …, lo+len(out)−1 into
// out in one pass per weighted attribute, reading each observed column
// block directly (for snapshot-backed datasets these are the mapped
// blocks — no per-row accessor, no copy). Per row it accumulates terms in
// the same sorted order and with the same rounding as Score, so the
// result is bit-identical to calling Score for every worker: normalize
// and clamp01 written out, with the range's width computed once per
// attribute. A term over an empty range adds +0, which changes no sum of
// these non-negative terms, so it is skipped. ScoreBlock writes only out,
// so it is safe to call concurrently on disjoint blocks.
func (l *Linear) ScoreBlock(ds *dataset.Dataset, lo int, out []float64) {
	clear(out)
	schema := ds.Schema()
	for _, t := range l.terms {
		if t.w == 0 {
			continue
		}
		a := schema.ObservedIndex(t.attr)
		if a < 0 {
			continue
		}
		def := schema.Observed[a]
		if !(def.Max > def.Min) {
			continue
		}
		min, width, w := def.Min, def.Max-def.Min, t.w
		col := ds.ObservedColumn(a)[lo : lo+len(out)]
		out := out[:len(col)]
		for i, v := range col {
			x := (v - min) / width
			if !(x >= 0) { // NaN too
				x = 0
			} else if x > 1 {
				x = 1
			}
			out[i] += float64(w * x)
		}
	}
	for i, v := range out {
		if !(v >= 0) {
			out[i] = 0
		} else if v > 1 {
			out[i] = 1
		}
	}
}

// String renders the function as its formula, with attributes sorted for
// stable output.
func (l *Linear) String() string {
	attrs := make([]string, 0, len(l.weights))
	for a := range l.weights {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	parts := make([]string, 0, len(attrs))
	for _, a := range attrs {
		parts = append(parts, fmt.Sprintf("%.3g·%s", l.weights[a], a))
	}
	return l.name + " = " + strings.Join(parts, " + ")
}

func normalize(v, min, max float64) float64 {
	if !(max > min) {
		return 0
	}
	return clamp01((v - min) / (max - min))
}

func clamp01(v float64) float64 {
	switch {
	case math.IsNaN(v), v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}

// BlockScorer is implemented by scoring functions that can score a
// contiguous block of workers in fused columnar passes. Implementations
// must be bit-identical to row-at-a-time Score evaluation, and safe to
// call concurrently on disjoint blocks: the engine scores a large
// population's blocks on several goroutines at once (core.Config's
// Parallelism), while it calls any other Func from one goroutine, in
// worker order. ScoreInto prefers this path when available.
type BlockScorer interface {
	ScoreBlock(ds *dataset.Dataset, lo int, out []float64)
}

// ScoreInto writes f's scores of workers lo, lo+1, …, lo+len(out)−1 into
// out, scanning column blocks directly when f supports it. Scoring a
// column block by block into one buffer gives the same bits as Scores.
func ScoreInto(ds *dataset.Dataset, f Func, lo int, out []float64) {
	if bs, ok := f.(BlockScorer); ok {
		bs.ScoreBlock(ds, lo, out)
		return
	}
	for k := range out {
		out[k] = f.Score(ds, lo+k)
	}
}

// Scores evaluates f for every worker and returns the full score column.
func Scores(ds *dataset.Dataset, f Func) []float64 {
	out := make([]float64, ds.N())
	ScoreInto(ds, f, 0, out)
	return out
}
