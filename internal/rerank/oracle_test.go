package rerank

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/marketplace"
	"fairrank/internal/rng"
	"fairrank/internal/simulate"
)

// The oracles below are the whole-pool re-ranking code the page-bounded
// paths replaced: a splitPool that stable-sorts every group's whole queue
// (so shares and counts are queue lengths), exposure-parity placing every
// pool member before the page is cut, and randomized sorting the whole
// pool by score and again by perturbed score. The production paths must
// agree with them bit for bit, errors included.

// oracleSplitPool splits the pool into whole per-group queues, each
// stable-sorted by descending score, then ascending worker index.
func oracleSplitPool(ds *dataset.Dataset, attr int, pool []marketplace.RankedWorker) (split, error) {
	if len(pool) == 0 {
		return split{}, errEmptyPool
	}
	if attr < 0 || attr >= len(ds.Schema().Protected) {
		return split{}, fmt.Errorf("rerank: protected attribute %d out of range", attr)
	}
	queues := make([][]marketplace.RankedWorker, ds.Schema().Protected[attr].Cardinality())
	for _, rw := range pool {
		if rw.Worker < 0 || rw.Worker >= ds.N() {
			return split{}, fmt.Errorf("rerank: worker %d out of range", rw.Worker)
		}
		g := ds.Code(attr, rw.Worker)
		queues[g] = append(queues[g], rw)
	}
	counts := make([]int, len(queues))
	for g, q := range queues {
		sort.SliceStable(q, func(a, b int) bool {
			if q[a].Score != q[b].Score {
				return q[a].Score > q[b].Score
			}
			return q[a].Worker < q[b].Worker
		})
		counts[g] = len(q)
	}
	return split{queues: queues, counts: counts, size: len(pool)}, nil
}

func oracleDet(variant detVariant) Func {
	return func(ds *dataset.Dataset, attr int, pool []marketplace.RankedWorker, k int, p Params) ([]marketplace.RankedWorker, error) {
		sp, err := oracleSplitPool(ds, attr, pool)
		if err != nil {
			return nil, err
		}
		return detPage(sp, pageSize(k, len(pool)), variant), nil
	}
}

func oracleFairTopK(ds *dataset.Dataset, attr int, pool []marketplace.RankedWorker, k int, p Params) ([]marketplace.RankedWorker, error) {
	alpha := p.Alpha
	if alpha == 0 {
		alpha = DefaultAlpha
	}
	if alpha <= 0 || alpha >= 1 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("rerank: alpha %v outside (0,1)", alpha)
	}
	sp, err := oracleSplitPool(ds, attr, pool)
	if err != nil {
		return nil, err
	}
	return fairTopKPage(sp, pageSize(k, len(pool)), alpha)
}

// oracleExposureParity re-ranks the whole pool, then cuts the page.
func oracleExposureParity(ds *dataset.Dataset, attr int, pool []marketplace.RankedWorker, k int, p Params) ([]marketplace.RankedWorker, error) {
	if p.Epsilon < 0 {
		return nil, errors.New("rerank: negative epsilon")
	}
	sp, err := oracleSplitPool(ds, attr, pool)
	if err != nil {
		return nil, err
	}
	out := exposurePage(sp, len(pool), p.Epsilon)
	return out[:pageSize(k, len(out))], nil
}

// oracleRandomized sorts the whole pool canonically, draws noise for
// every candidate, and sorts the whole pool again by perturbed score.
func oracleRandomized(ds *dataset.Dataset, attr int, pool []marketplace.RankedWorker, k int, p Params) ([]marketplace.RankedWorker, error) {
	if len(pool) == 0 {
		return nil, errEmptyPool
	}
	spread := p.Spread
	if spread == 0 {
		spread = DefaultSpread
	}
	if math.IsNaN(spread) || spread < 0 || spread > 1 {
		return nil, fmt.Errorf("rerank: spread %v out of range [0, 1]", p.Spread)
	}
	type candidate struct {
		worker int
		score  float64
	}
	cands := make([]candidate, len(pool))
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, rw := range pool {
		if math.IsNaN(rw.Score) || math.IsInf(rw.Score, 0) {
			return nil, fmt.Errorf("rerank: worker %d has non-finite score", rw.Worker)
		}
		cands[i] = candidate{rw.Worker, rw.Score}
		lo, hi = math.Min(lo, rw.Score), math.Max(hi, rw.Score)
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		return cands[a].worker < cands[b].worker
	})
	amp := 0.5 * spread * (hi - lo)
	r := rng.New(p.Seed)
	perturbed := make([]float64, len(cands))
	for i := range cands {
		perturbed[i] = cands[i].score + amp*(2*r.Float64()-1)
	}
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if perturbed[ia] != perturbed[ib] {
			return perturbed[ia] > perturbed[ib]
		}
		return cands[ia].worker < cands[ib].worker
	})
	n := pageSize(k, len(cands))
	out := make([]marketplace.RankedWorker, n)
	for pos := 0; pos < n; pos++ {
		c := cands[order[pos]]
		out[pos] = marketplace.RankedWorker{Worker: c.worker, Score: c.score, Rank: pos + 1}
	}
	return out, nil
}

var oracles = map[string]Func{
	"det-greedy":      oracleDet(detGreedy),
	"det-cons":        oracleDet(detCons),
	"det-relaxed":     oracleDet(detRelaxed),
	"fair-topk":       oracleFairTopK,
	"exposure-parity": oracleExposureParity,
	"randomized":      oracleRandomized,
}

// samePage reports whether two pages hold the same ranks, workers and
// score bits.
func samePage(a, b []marketplace.RankedWorker) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Rank != b[i].Rank || a[i].Worker != b[i].Worker ||
			math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// checkOracle runs one re-ranker and its oracle on the same request and
// fails unless pages and error texts agree exactly. It returns the error.
func checkOracle(t *testing.T, what, name string, ds *dataset.Dataset, attr int, pool []marketplace.RankedWorker, k int, p Params) error {
	t.Helper()
	fn, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	got, gotErr := fn(ds, attr, pool, k, p)
	want, wantErr := oracles[name](ds, attr, pool, k, p)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s %s attr=%d k=%d %+v: error %v, oracle %v", what, name, attr, k, p, gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() || errors.Is(gotErr, ErrInfeasible) != errors.Is(wantErr, ErrInfeasible) {
			t.Fatalf("%s %s attr=%d k=%d %+v: error %q, oracle %q", what, name, attr, k, p, gotErr, wantErr)
		}
	case !samePage(got, want):
		t.Fatalf("%s %s attr=%d k=%d %+v: page\n%v\noracle\n%v", what, name, attr, k, p, got, want)
	}
	return gotErr
}

// oraclePools are shuffled candidate pools over ds: continuous scores,
// a tie-heavy four-level quantization of them, one constant score, and a
// random half of the population (a query-filtered pool).
func oraclePools(ds *dataset.Dataset, seed uint64) map[string][]marketplace.RankedWorker {
	r := rng.New(seed)
	shuffled := func(pool []marketplace.RankedWorker) []marketplace.RankedWorker {
		out := make([]marketplace.RankedWorker, len(pool))
		for i, j := range r.Perm(len(pool)) {
			out[i] = pool[j]
		}
		return out
	}
	n := ds.N()
	cont := make([]marketplace.RankedWorker, n)
	for i := range cont {
		// Gender-biased scores, as the serving benchmarks use.
		lo := 0.3
		if ds.Code(0, i) == 1 {
			lo = 0
		}
		cont[i] = marketplace.RankedWorker{Worker: i, Score: lo + 0.7*r.Float64()}
	}
	ties := make([]marketplace.RankedWorker, n)
	constant := make([]marketplace.RankedWorker, n)
	var half []marketplace.RankedWorker
	for i, rw := range cont {
		ties[i] = marketplace.RankedWorker{Worker: i, Score: math.Floor(rw.Score*4) / 4}
		constant[i] = marketplace.RankedWorker{Worker: i, Score: 0.5}
		if r.Float64() < 0.5 {
			half = append(half, rw)
		}
	}
	return map[string][]marketplace.RankedWorker{
		"continuous": shuffled(cont),
		"ties":       shuffled(ties),
		"constant":   shuffled(constant),
		"subset":     shuffled(half),
	}
}

// TestRerankersMatchWholePoolOracles pins every registered re-ranker to
// its whole-pool oracle over every protected attribute, page sizes from
// one candidate to past the pool, and each re-ranker's knobs.
func TestRerankersMatchWholePoolOracles(t *testing.T) {
	if len(oracles) != len(Rerankers()) {
		t.Fatalf("%d oracles for re-rankers %v", len(oracles), Rerankers())
	}
	var pages, infeasible int
	fairTopK := func(what string, ds *dataset.Dataset, attr int, pool []marketplace.RankedWorker, k int, p Params) {
		if err := checkOracle(t, what, "fair-topk", ds, attr, pool, k, p); err == nil {
			pages++
		} else if errors.Is(err, ErrInfeasible) {
			infeasible++
		}
	}
	for _, n := range []int{40, 300} {
		ds, err := simulate.PaperWorkers(n, uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		for kind, pool := range oraclePools(ds, uint64(n)+1) {
			what := fmt.Sprintf("n=%d %s pool of %d:", n, kind, len(pool))
			m := len(pool)
			for _, k := range []int{0, 1, 20, m - 1, m, m + 5} {
				for attr := range ds.Schema().Protected {
					for _, p := range []Params{{Epsilon: 0}, {Epsilon: 0.1, Alpha: 0.05}, {Epsilon: 1, Alpha: 0.2}} {
						for _, name := range []string{"det-greedy", "det-cons", "det-relaxed", "exposure-parity"} {
							checkOracle(t, what, name, ds, attr, pool, k, p)
						}
					}
					// fair-topk's construction is O(k²·groups): its
					// whole-pool pages run once per attribute.
					fairTopK(what, ds, attr, pool, k, Params{})
					if k < m-1 {
						fairTopK(what, ds, attr, pool, k, Params{Alpha: 0.3})
						fairTopK(what, ds, attr, pool, k, Params{Alpha: 0.9})
					}
				}
				for _, spread := range []float64{0.01, 0.1, 1} {
					for seed := uint64(0); seed < 3; seed++ {
						checkOracle(t, what, "randomized", ds, -1, pool, k, Params{Spread: spread, Seed: seed})
					}
				}
			}
		}
	}
	// Both of fair-topk's outcomes must be compared, pages and the
	// ErrInfeasible texts.
	t.Logf("fair-topk: %d pages, %d infeasible", pages, infeasible)
	if pages < 50 || infeasible < 50 {
		t.Fatalf("fair-topk compared %d pages and %d infeasible pools, want 50 of each", pages, infeasible)
	}
}

// Invalid requests fail with the oracles' error text.
func TestRerankersMatchOracleErrors(t *testing.T) {
	ds, err := simulate.PaperWorkers(30, 3)
	if err != nil {
		t.Fatal(err)
	}
	pool := oraclePools(ds, 4)["continuous"]
	oob := append([]marketplace.RankedWorker{{Worker: ds.N(), Score: 0.5}}, pool...)
	nan := append([]marketplace.RankedWorker{{Worker: 0, Score: math.NaN()}}, pool[1:]...)
	for name := range oracles {
		for _, c := range []struct {
			what string
			attr int
			pool []marketplace.RankedWorker
			p    Params
		}{
			{"empty pool", 0, nil, Params{}},
			{"attribute past the schema", 99, pool, Params{}},
			{"negative attribute", -1, pool, Params{}},
			{"worker out of range", 0, oob, Params{}},
			{"non-finite score", 0, nan[:1], Params{}},
			{"negative epsilon", 0, pool, Params{Epsilon: -1}},
			{"alpha past one", 0, pool, Params{Alpha: 2}},
			{"spread past one", 0, pool, Params{Spread: 2}},
		} {
			checkOracle(t, c.what, name, ds, c.attr, c.pool, 10, c.p)
		}
	}
}

// oracleEvaluate is Evaluate as first written: the pool must be sorted,
// the baseline page is its k-prefix, pages come from the whole-pool
// oracles, and NDCG is computed over an N-float relevance vector.
func oracleEvaluate(ctx context.Context, ds *dataset.Dataset, attr int, pool []marketplace.RankedWorker, k int, p Params) (Outcome, []Outcome, error) {
	evaluate := func(page []marketplace.RankedWorker, algorithm string) (Outcome, error) {
		out := Outcome{Algorithm: algorithm}
		var err error
		if out.Unfairness, err = AuditPage(ctx, ds, page, attr); err != nil {
			return out, err
		}
		relevance := make([]float64, ds.N())
		for _, rw := range pool {
			relevance[rw.Worker] = rw.Score
		}
		if out.NDCG, err = marketplace.NDCG(relevance, page); err != nil {
			return out, err
		}
		exp, err := marketplace.GroupExposure(ds, attr, page)
		if err != nil {
			return out, err
		}
		out.Disparity = marketplace.ExposureDisparity(exp)
		return out, nil
	}
	n := pageSize(k, len(pool))
	base, err := evaluate(pool[:n], "")
	if err != nil {
		return base, nil, err
	}
	var outcomes []Outcome
	for _, name := range Rerankers() {
		page, err := oracles[name](ds, attr, pool, n, p)
		if err != nil {
			return base, outcomes, fmt.Errorf("%s: %w", name, err)
		}
		o, err := evaluate(page, name)
		if err != nil {
			return base, outcomes, fmt.Errorf("%s: %w", name, err)
		}
		outcomes = append(outcomes, o)
	}
	return base, outcomes, nil
}

// Evaluate takes its baseline from the selection and its NDCG from the
// two pages, so it accepts a pool in any order and scores every page
// exactly as the whole-pool oracle scores the sorted pool.
func TestEvaluateMatchesWholePoolOracle(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{21, 22} {
		ds, attr, ranked := overlapBiasedRanking(t, 200, seed)
		shuffled := make([]marketplace.RankedWorker, len(ranked))
		for i, j := range rng.New(seed).Perm(len(ranked)) {
			shuffled[i] = ranked[j]
		}
		for _, k := range []int{1, 20, 199, 200} {
			p := Params{Epsilon: 1, Seed: seed}
			base, outcomes, err := Evaluate(ctx, ds, attr, shuffled, k, p, nil)
			wantBase, wantOutcomes, wantErr := oracleEvaluate(ctx, ds, attr, ranked, k, p)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("seed %d k=%d: error %v, oracle %v", seed, k, err, wantErr)
			}
			if base != wantBase || fmt.Sprint(outcomes) != fmt.Sprint(wantOutcomes) {
				t.Fatalf("seed %d k=%d: %+v %+v\noracle %+v %+v", seed, k, base, outcomes, wantBase, wantOutcomes)
			}
		}
	}
}
