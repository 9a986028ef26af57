// Package fairrank is a Go library for exploring fairness of ranking in
// online job marketplaces, implementing Elbassuoni, Amer-Yahia, Ghizzawi
// and El Atie, "Exploring Fairness of Ranking in Online Job Marketplaces"
// (EDBT 2019).
//
// Given a population of workers with protected attributes (gender, country,
// age, ...) and observed attributes (skills), and a scoring function that
// ranks workers for jobs, fairrank searches for the *most unfair
// partitioning*: the grouping of workers on any combination of protected
// attributes whose score distributions differ the most, measured by the
// average pairwise Earth Mover's Distance between per-group score
// histograms. Unlike audits over pre-defined groups, this surfaces subgroup
// discrimination — a function may treat men and women equally overall yet
// discriminate against, say, older Asian-American women.
//
// # Quick start
//
//	ds, _ := fairrank.GenerateWorkers(500, 42)       // or load your own CSV
//	f, _ := fairrank.NewLinearFunc("f", map[string]float64{
//		"LanguageTest": 0.7, "ApprovalRate": 0.3,
//	})
//	auditor := fairrank.NewAuditor()
//	res, _ := auditor.Audit(ds, f, fairrank.AlgoBalanced)
//	fmt.Printf("unfairness %.3f across %d groups\n",
//		res.Unfairness, res.Partitioning.Size())
//
// # Architecture
//
// The library layers as follows (each layer usable on its own):
//
//   - histograms and Earth Mover's Distance (closed-form over histograms,
//     exact over score samples, plus alternative metrics);
//   - a columnar worker/dataset model with CSV/JSON codecs;
//   - scoring functions: linear weighted functions and rule-based ones;
//   - the partitioning machinery and the paper's five algorithms
//     (balanced, unbalanced, r-balanced, r-unbalanced, all-attributes)
//     plus a budget-guarded exhaustive solver;
//   - a marketplace simulator (ranking, exposure, hiring) and a
//     quantile-matching bias repairer.
//
// See DESIGN.md for the full inventory and EXPERIMENTS.md for the
// reproduction of the paper's Tables 1–3 and Figure 1.
package fairrank
