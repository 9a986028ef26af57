// Repair: detect bias, then repair it — the paper's stated future work.
// We score workers with the gender-discriminating f6, let the audit find
// the most unfair partitioning, then apply quantile-matching repair at
// increasing strengths and watch unfairness fall while within-group
// ranking is preserved.
package main

import (
	"fmt"
	"log"

	"fairrank"
)

func main() {
	log.SetFlags(0)
	ds, err := fairrank.GenerateWorkers(1000, 13)
	if err != nil {
		log.Fatal(err)
	}
	f6, err := fairrank.NewRuleFunc("f6", 13, []fairrank.Rule{
		{When: fairrank.AttrIs("Gender", "Male"), Lo: 0.8, Hi: 1.0},
		{When: fairrank.AttrIs("Gender", "Female"), Lo: 0.0, Hi: 0.2},
	})
	if err != nil {
		log.Fatal(err)
	}

	auditor := fairrank.NewAuditor()
	res, err := auditor.Audit(ds, f6, fairrank.AlgoBalanced)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audit found unfairness %.3f over %d groups:\n",
		res.Unfairness, res.Partitioning.Size())
	fmt.Println(res.Partitioning.Describe(ds.Schema()))
	fmt.Println()

	fmt.Println("repair strength → unfairness of the repaired scores:")
	for _, amount := range []float64{0, 0.25, 0.5, 0.75, 1} {
		repaired, err := auditor.RepairedScores(ds, f6, res.Partitioning, amount)
		if err != nil {
			log.Fatal(err)
		}
		u, err := auditor.ScoreUnfairness(ds, repaired, res.Partitioning)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  amount %.2f → %.3f\n", amount, u)
	}

	// Show the ranking effect: top 10 before vs after full repair.
	repaired, err := auditor.RepairedScores(ds, f6, res.Partitioning, 1)
	if err != nil {
		log.Fatal(err)
	}
	repairedFunc := fairrank.FuncOf("f6-repaired", func(d *fairrank.Dataset, i int) float64 {
		return repaired[i]
	})
	gender := ds.Schema().ProtectedIndex("Gender")
	count := func(f fairrank.ScoringFunc) (male, female int) {
		for _, rw := range fairrank.RankWorkers(ds, f, 20) {
			if ds.ProtectedLabel(gender, rw.Worker) == "Male" {
				male++
			} else {
				female++
			}
		}
		return male, female
	}
	m0, f0 := count(f6)
	m1, f1 := count(repairedFunc)
	fmt.Printf("\ntop-20 composition before repair: %d male / %d female\n", m0, f0)
	fmt.Printf("top-20 composition after  repair: %d male / %d female\n", m1, f1)
}
