package marketplace

import (
	"math"
	"slices"
	"sort"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/query"
	"fairrank/internal/scoring"
	"fairrank/internal/simulate"
)

// The oracles below are the page and NDCG code as first written: a per-row
// score, a stable sort of the whole candidate list, and an insertion sort
// of the whole relevance vector for the ideal ranking. The production
// paths must agree with them bit for bit.

func oracleSort(ranked []RankedWorker, k int) []RankedWorker {
	sort.SliceStable(ranked, func(a, b int) bool {
		if ranked[a].Score != ranked[b].Score {
			return ranked[a].Score > ranked[b].Score
		}
		return ranked[a].Worker < ranked[b].Worker
	})
	if k > 0 && k < len(ranked) {
		ranked = ranked[:k]
	}
	for i := range ranked {
		ranked[i].Rank = i + 1
	}
	return ranked
}

func oracleRankBy(ds *dataset.Dataset, f scoring.Func, k int) []RankedWorker {
	ranked := make([]RankedWorker, ds.N())
	for i := range ranked {
		ranked[i] = RankedWorker{Worker: i, Score: f.Score(ds, i)}
	}
	return oracleSort(ranked, k)
}

func oracleRankQuery(t *testing.T, ds *dataset.Dataset, f scoring.Func, text string, k int) []RankedWorker {
	t.Helper()
	expr, err := query.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.Compile(expr, ds.Schema())
	if err != nil {
		t.Fatal(err)
	}
	matched := q.Filter(ds)
	ranked := make([]RankedWorker, len(matched))
	for j, i := range matched {
		ranked[j] = RankedWorker{Worker: i, Score: f.Score(ds, i)}
	}
	return oracleSort(ranked, k)
}

func oracleTopK(xs []float64, k int) []float64 {
	if k > len(xs) {
		k = len(xs)
	}
	cp := append([]float64(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] > cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[:k]
}

func oracleNDCG(relevance []float64, ranked []RankedWorker) float64 {
	dcg := 0.0
	for _, rw := range ranked {
		dcg += relevance[rw.Worker] * PositionBias(rw.Rank)
	}
	idcg := 0.0
	for i, rel := range oracleTopK(relevance, len(ranked)) {
		idcg += rel * PositionBias(i+1)
	}
	if idcg == 0 {
		return 1
	}
	return dcg / idcg
}

// diffFuncs covers the columnar scoring path (a linear function) and the
// per-row fallback with heavy ties: ten score levels, and one level.
func diffFuncs(t *testing.T) []scoring.Func {
	t.Helper()
	linear, err := scoring.NewLinear("lin", map[string]float64{"LanguageTest": 0.7, "ApprovalRate": 0.3})
	if err != nil {
		t.Fatal(err)
	}
	tenLevels := scoring.ScoreFunc{FuncName: "ten", Fn: func(ds *dataset.Dataset, i int) float64 {
		return math.Floor(ds.Observed(0, i)/10) / 10
	}}
	constant := scoring.ScoreFunc{FuncName: "const", Fn: func(*dataset.Dataset, int) float64 { return 0.5 }}
	return []scoring.Func{linear, tenLevels, constant}
}

func diffKs(n int) []int { return []int{0, 1, 20, n, n + 5} }

// TestPagesMatchStableSortOracle pins RankBy and RankQuery to the
// stable-sort oracle at the paper's population sizes.
func TestPagesMatchStableSortOracle(t *testing.T) {
	queries := []string{
		"YearsExperience >= 5",
		"Gender = 'Female'",
		"LanguageTest > 40 AND NOT Ethnicity = 'Other'",
	}
	for _, n := range []int{50, 500, simulate.LargePopulation} {
		ds, err := simulate.PaperWorkers(n, 42)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range diffFuncs(t) {
			for _, k := range diffKs(n) {
				if got, want := RankBy(ds, f, k), oracleRankBy(ds, f, k); !slices.Equal(got, want) {
					t.Fatalf("n=%d f=%s k=%d: RankBy differs from the stable-sort oracle", n, f.Name(), k)
				}
			}
		}
		weights := map[string]float64{"LanguageTest": 0.7, "ApprovalRate": 0.3}
		if err := m.PostTask(Task{ID: "t", Weights: weights}); err != nil {
			t.Fatal(err)
		}
		f, err := m.ScoringFunc("t")
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			for _, k := range diffKs(n) {
				got, err := m.RankQuery("t", q, k)
				if err != nil {
					t.Fatal(err)
				}
				if want := oracleRankQuery(t, ds, f, q, k); !slices.Equal(got, want) {
					t.Fatalf("n=%d q=%q k=%d: RankQuery differs from the stable-sort oracle", n, q, k)
				}
			}
		}
	}
}

// TestNDCGMatchesInsertionSortOracle pins NDCG — and the heap behind its
// ideal ranking — to the insertion-sort oracle, for pages ranked by the
// relevance itself and by other functions, over tie-heavy and all-zero
// relevance.
func TestNDCGMatchesInsertionSortOracle(t *testing.T) {
	for _, n := range []int{50, 500, simulate.LargePopulation} {
		ds, err := simulate.PaperWorkers(n, 7)
		if err != nil {
			t.Fatal(err)
		}
		funcs := diffFuncs(t)
		relevances := [][]float64{make([]float64, n)} // all zero
		for _, f := range funcs {
			relevances = append(relevances, scoring.Scores(ds, f))
		}
		for ri, rel := range relevances {
			for _, k := range append(diffKs(n), -1) {
				if got, want := TopK(rel, k, descending), oracleTopK(rel, max(k, 0)); !slices.Equal(got, want) {
					t.Fatalf("n=%d relevance %d k=%d: topK %v, oracle %v", n, ri, k, got, want)
				}
			}
			for _, f := range funcs {
				for _, k := range diffKs(n) {
					ranked := RankBy(ds, f, k)
					got, err := NDCG(rel, ranked)
					if err != nil {
						t.Fatal(err)
					}
					if want := oracleNDCG(rel, ranked); got != want {
						t.Fatalf("n=%d relevance %d f=%s k=%d: NDCG %v, oracle %v", n, ri, f.Name(), k, got, want)
					}
				}
			}
		}
	}
}
