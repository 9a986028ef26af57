package testkit

import "math"

// DecayUnfairness is the literal-math oracle for the exponential-decay
// unfairness estimator in internal/drift: replay the whole event stream,
// give each live worker's newest observation the textbook weight
// 2^((t−T)/halfLife) — where t is the event index of its last join or
// rescore and T the stream length — bin the weighted mass per group by
// Counts' rule over [0, 1], and
// average the pairwise EMDs over the normalized PMFs with EMDFlow. No
// incremental bookkeeping, no growing-scale trick, no rescaling: just the
// definition. Groups with no live workers do not participate, matching
// the estimator's convention.
func (o Oracle) DecayUnfairness(events []Event, groups, bins int, halfLife float64) float64 {
	type obs struct {
		group int
		score float64
		t     int
	}
	live := map[string]obs{}
	for t, ev := range events {
		switch ev.Kind {
		case EventJoin, EventRescore:
			live[ev.ID] = obs{group: ev.Group, score: ev.Score, t: t}
		case EventLeave:
			delete(live, ev.ID)
		}
	}
	mass := make([][]float64, groups)
	for i := range mass {
		mass[i] = make([]float64, bins)
	}
	T := len(events)
	for _, ob := range live {
		w := math.Exp2(float64(ob.t-T) / halfLife)
		mass[ob.group][binOf(ob.score, bins, 0, 1)] += w
	}
	var pmfs [][]float64
	for _, row := range mass {
		total := 0.0
		for _, c := range row {
			total += c
		}
		if total == 0 {
			continue
		}
		pmf := make([]float64, bins)
		for i, c := range row {
			pmf[i] = c / total
		}
		pmfs = append(pmfs, pmf)
	}
	return o.AvgPairwise(pmfs, 1/float64(bins))
}
