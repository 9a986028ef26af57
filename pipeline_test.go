package fairrank_test

import (
	"fmt"
	"testing"

	"fairrank"
)

// TestEndToEndPipeline drives the whole system the way a platform operator
// would: generate a population with latent bias, select the candidate pool
// with a requester query, audit the pool, confirm significance, explain the
// attribute, repair the scores, re-rank the page, and finally feed the
// repaired scores through the monitor — each stage consuming the previous
// stage's output.
func TestEndToEndPipeline(t *testing.T) {
	// 1. A population whose English speakers have inflated skill values.
	ds, err := fairrank.GenerateSkewedWorkers(1200, 99, fairrank.PopulationOptions{
		SkillBias: 40, BiasAttr: "Language", BiasValue: "English",
	})
	if err != nil {
		t.Fatal(err)
	}

	// 2. A requester filters the pool.
	q, err := fairrank.CompileQuery("YearsExperience >= 2", ds.Schema())
	if err != nil {
		t.Fatal(err)
	}
	pool, err := q.Select(ds)
	if err != nil {
		t.Fatal(err)
	}
	if pool.N() == 0 || pool.N() >= ds.N() {
		t.Fatalf("degenerate pool: %d", pool.N())
	}

	// 3. Audit the pool under an innocent skill-average function.
	f, err := fairrank.NewLinearFunc("task", map[string]float64{
		"LanguageTest": 0.5, "ApprovalRate": 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	auditor := fairrank.NewAuditor()
	res, err := auditor.Audit(pool, f, fairrank.AlgoBalanced)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unfairness <= 0 {
		t.Fatal("no unfairness found on biased pool")
	}

	// 4. The disparity must be significant, and Language must top the
	// explanation.
	p, _, err := auditor.Significance(pool, f, res.Partitioning, 200)
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.05 {
		t.Fatalf("latent bias not significant: p=%v", p)
	}
	imps, err := auditor.Explain(pool, f)
	if err != nil {
		t.Fatal(err)
	}
	if imps[0].Attribute != "Language" {
		t.Fatalf("top attribute = %s, want Language", imps[0].Attribute)
	}

	// 5. Repair the scores over the found partitioning.
	repaired, err := auditor.RepairedScores(pool, f, res.Partitioning, 1)
	if err != nil {
		t.Fatal(err)
	}
	after, err := auditor.ScoreUnfairness(pool, repaired, res.Partitioning)
	if err != nil {
		t.Fatal(err)
	}
	if after > res.Unfairness/2 {
		t.Fatalf("repair only reached %v from %v", after, res.Unfairness)
	}

	// 6. Re-rank the original page toward exposure parity and verify the
	// disparity dropped.
	ranked := fairrank.RankWorkers(pool, f, 0)
	fixed, err := fairrank.RerankExposureParity(pool, "Language", ranked,
		fairrank.RerankOptions{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	lang := pool.Schema().ProtectedIndex("Language")
	expBefore, err := fairrank.GroupExposure(pool, lang, ranked[:100])
	if err != nil {
		t.Fatal(err)
	}
	expAfter, err := fairrank.GroupExposure(pool, lang, fixed[:100])
	if err != nil {
		t.Fatal(err)
	}
	if fairrank.ExposureDisparity(expAfter) >= fairrank.ExposureDisparity(expBefore) {
		t.Fatalf("rerank did not reduce disparity: %v -> %v",
			fairrank.ExposureDisparity(expBefore), fairrank.ExposureDisparity(expAfter))
	}

	// 7. Feed the REPAIRED scores through the monitor: the Language
	// grouping must no longer alert.
	mon, err := fairrank.NewMonitor(pool.Schema(), []string{"Language"}, 10, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	schema := pool.Schema()
	for i := 0; i < pool.N(); i++ {
		attrs := map[string]any{}
		for a, attr := range schema.Protected {
			if attr.Kind == fairrank.Categorical {
				attrs[attr.Name] = attr.Values[pool.Code(a, i)]
			} else {
				attrs[attr.Name] = pool.RawProtected(a, i)
			}
		}
		if err := mon.Join(fmt.Sprintf("w%d", i), attrs, repaired[i]); err != nil {
			t.Fatal(err)
		}
	}
	if u, breached := mon.Alert(); breached {
		t.Fatalf("monitor alerts on repaired scores: %v", u)
	}
}
