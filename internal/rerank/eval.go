package rerank

import (
	"context"
	"fmt"

	"fairrank/internal/core"
	"fairrank/internal/dataset"
	"fairrank/internal/marketplace"
	"fairrank/internal/scoring"
)

// The evaluation layer scores every re-ranker on the two axes the
// mitigation literature trades between: how much unfairness the page
// sheds (audited by the existing core engine over the page's exposure
// distribution) and how much ranking utility it costs (NDCG against the
// score-optimal page).

// Outcome is one re-ranker's two-axis evaluation of a page.
type Outcome struct {
	// Algorithm is the registry name ("" for the unmitigated baseline).
	Algorithm string `json:"algorithm"`
	// Unfairness is the core engine's audit of the page: the most unfair
	// partitioning of the page members' position-bias exposure.
	Unfairness float64 `json:"unfairness"`
	// NDCG measures utility retention against the score-optimal page
	// (1 = no utility lost).
	NDCG float64 `json:"ndcg"`
	// Disparity is the max/min ratio of mean group exposure on the page.
	Disparity float64 `json:"disparity"`
}

// AuditPage runs the core engine over a page: page members become a
// derived population whose single observed attribute is their
// position-bias exposure (rank 1 → 1.0, in [0,1] — exactly the engine's
// GroundScore range), keeping every protected column, and the balanced
// greedy search finds the most unfair partitioning of that exposure.
// attrs optionally restricts the search to specific protected attributes
// (indices into ds.Schema().Protected, which the derived population
// shares) — pass the mitigated attribute to measure what a re-ranker
// changed rather than the page's exposure spread along every attribute.
// This is the audit axis of the evaluation layer: a re-ranker is judged
// by the same machinery that judged the original ranking.
//
// The measure is within-page: a page that excludes a group entirely
// shows no unfairness along that attribute (there is no one to compare),
// so pair it with the exposure-disparity axis, which does see exclusion.
func AuditPage(ctx context.Context, ds *dataset.Dataset, page []marketplace.RankedWorker, attrs ...int) (float64, error) {
	if len(page) == 0 {
		return 0, errEmptyPool
	}
	schema := ds.Schema()
	derived := &dataset.Schema{
		Protected: schema.Clone().Protected,
		Observed:  []dataset.Attribute{dataset.Num("Exposure", 0, 1, 1)},
	}
	b := dataset.NewBuilder(derived)
	for _, rw := range page {
		if rw.Worker < 0 || rw.Worker >= ds.N() {
			return 0, fmt.Errorf("rerank: worker %d out of range", rw.Worker)
		}
		prot := map[string]any{}
		for a, attr := range schema.Protected {
			if attr.Kind == dataset.Categorical {
				prot[attr.Name] = attr.ValueLabel(ds.Code(a, rw.Worker))
			} else {
				prot[attr.Name] = ds.RawProtected(a, rw.Worker)
			}
		}
		b.Add(ds.ID(rw.Worker), prot, map[string]any{"Exposure": marketplace.PositionBias(rw.Rank)})
	}
	pop, err := b.Build()
	if err != nil {
		return 0, err
	}
	exposure := scoring.ScoreFunc{
		FuncName: "page-exposure",
		Fn:       func(d *dataset.Dataset, i int) float64 { return d.Observed(0, i) },
	}
	e, err := core.NewEvaluator(pop, exposure, core.Config{})
	if err != nil {
		return 0, err
	}
	res, err := core.Run(ctx, core.Spec{Algorithm: "balanced", Evaluator: e, Attrs: attrs})
	if err != nil {
		return 0, err
	}
	return res.Unfairness, nil
}

// evaluatePage computes one page's Outcome against best, the pool's
// score-optimal page of the same size.
func evaluatePage(ctx context.Context, ds *dataset.Dataset, attr int, best, page []marketplace.RankedWorker, algorithm string) (Outcome, error) {
	out := Outcome{Algorithm: algorithm}
	var err error
	if out.Unfairness, err = AuditPage(ctx, ds, page, attr); err != nil {
		return out, err
	}
	if out.NDCG, err = marketplace.PageNDCG(page, best); err != nil {
		return out, err
	}
	exp, err := marketplace.GroupExposure(ds, attr, page)
	if err != nil {
		return out, err
	}
	out.Disparity = marketplace.ExposureDisparity(exp)
	return out, nil
}

// Evaluate runs every named re-ranker (all registered ones when names is
// nil) over the pool at page size k and scores each page on both axes,
// alongside the unmitigated score-optimal baseline (Algorithm ""). The
// pool may be in any order; the baseline page is its top k, selected as
// marketplace.TopPage does. NDCG treats pool scores as relevance, so they
// should be non-negative (see marketplace.PageNDCG). Re-rankers that
// reject the pool (e.g. fair-topk on an infeasible one) surface their
// error.
func Evaluate(ctx context.Context, ds *dataset.Dataset, attr int, pool []marketplace.RankedWorker, k int, p Params, names []string) (base Outcome, outcomes []Outcome, err error) {
	if names == nil {
		names = Rerankers()
	}
	n := pageSize(k, len(pool))
	best := marketplace.TopPage(pool, n)
	if base, err = evaluatePage(ctx, ds, attr, best, best, ""); err != nil {
		return base, nil, err
	}
	for _, name := range names {
		page, err := Serve(nil, name, ds, attr, pool, n, p)
		if err != nil {
			return base, outcomes, fmt.Errorf("%s: %w", name, err)
		}
		o, err := evaluatePage(ctx, ds, attr, best, page, name)
		if err != nil {
			return base, outcomes, fmt.Errorf("%s: %w", name, err)
		}
		outcomes = append(outcomes, o)
	}
	return base, outcomes, nil
}
