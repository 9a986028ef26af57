package core

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"sort"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/emd"
	"fairrank/internal/partition"
	"fairrank/internal/rng"
	"fairrank/internal/testkit"
)

// Tests for the exact average (average.go): a math/big oracle of the
// identity over the same float columns, testkit's literal pair sum, the
// one rounding, and averages known in closed form.

// bigIdentity is the identity in exact rational arithmetic over the given
// columns: for each bin the sorted column's Σ x₍ᵣ₎·(2r − k + 1), summed
// over bins, divided by d·k(k−1)/2 and rounded to nearest-even by
// big.Rat.Float64.
func bigIdentity(cols [][]float64, d uint64) float64 {
	k := len(cols)
	if k < 2 || d == 0 {
		return 0
	}
	sum, term := new(big.Rat), new(big.Rat)
	col := make([]float64, k)
	for b := range cols[0] {
		for i, c := range cols {
			col[i] = c[b]
		}
		sort.Float64s(col)
		for r, x := range col {
			term.SetFloat64(x)
			sum.Add(sum, term.Mul(term, big.NewRat(int64(2*r-k+1), 1)))
		}
	}
	den := new(big.Int).Mul(new(big.Int).SetUint64(d), big.NewInt(int64(k)*int64(k-1)/2))
	f, _ := sum.Quo(sum, new(big.Rat).SetInt(den)).Float64()
	return f
}

// randomCounts draws one part's bin counts: empty one time in eight,
// otherwise a size up to 2³²−1 spread unevenly over the bins, so the
// payload's values c/n use all their bits, down to 1/n near 2⁻³².
func randomCounts(r *rng.RNG, bins int) []float64 {
	counts := make([]float64, bins)
	if r.Intn(8) == 0 {
		return counts
	}
	n := uint64(1 + r.Intn(60))
	if r.Intn(3) == 0 {
		n = 1 + r.Uint64()%(1<<32-1)
	}
	for n > 0 {
		b := r.Intn(bins)
		c := 1 + r.Uint64()%n
		counts[b] += float64(c)
		n -= c
	}
	return counts
}

// TestIdentityMatchesBigOracle: the exact average equals, bit for bit, a
// math/big evaluation of the identity over the same float columns, for k
// from 2 to 300, bins 1, 2, 10 and 64, under both grounds, L1 and TV,
// with empty parts and with columns whose values are all equal. Under
// EMD, testkit's literal pair sum of flow distances agrees within 1e-12
// relative.
func TestIdentityMatchesBigOracle(t *testing.T) {
	g := testkit.NewGen(31)
	ds, err := g.WorkerDataset(40)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(77)
	var o testkit.Oracle
	for _, bins := range []int{1, 2, 10, 64} {
		for _, cfg := range []Config{
			{Bins: bins},
			{Bins: bins, Ground: emd.GroundIndex},
			{Bins: bins, Metric: emd.MetricL1},
			{Bins: bins, Metric: emd.MetricTV},
		} {
			e, err := NewEvaluator(ds, testkit.ScoreFunc(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 3, 4, 7, 16, 33, 100, 2 + r.Intn(299), 300} {
				for _, shape := range []string{"random", "equal"} {
					counts := make([][]float64, k)
					reps := make([]*rep, k)
					cols := make([][]float64, k)
					same := randomCounts(r, bins)
					for i := range reps {
						counts[i] = randomCounts(r, bins)
						if shape == "equal" {
							counts[i] = append([]float64(nil), same...)
						}
						cols[i] = e.payload(append([]float64(nil), counts[i]...))
						reps[i] = &rep{data: cols[i]}
					}
					got := e.average(nil, reps, 1)
					if want := bigIdentity(cols, e.den); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%+v, k %d, %s: %v, big oracle %v", cfg, k, shape, got, want)
					}
					if shape == "equal" && got != 0 {
						t.Fatalf("%+v, k %d: equal columns average %v", cfg, k, got)
					}
					if cfg.Metric != emd.MetricEMD || e.den == 0 {
						continue
					}
					pmfs := make([][]float64, k)
					for i, c := range counts {
						pmfs[i] = o.PMF(c)
					}
					if lit := o.AvgPairwise(pmfs, 1/float64(e.den)); math.Abs(got-lit) > 1e-12*math.Max(lit, 1e-3) {
						t.Fatalf("%+v, k %d, %s: %v, literal pair sum %v", cfg, k, shape, got, lit)
					}
				}
			}
		}
	}
}

// TestRatioRoundsOnce: ratio's long division rounds n/(d·p·2⁸⁴) once to
// nearest-even, as big.Rat does, including where d·p passes 2⁶⁴, where the
// quotient sits exactly halfway between two float64s, and where n has
// its largest size.
func TestRatioRoundsOnce(t *testing.T) {
	r := rng.New(5)
	check := func(n wide, d, p uint64) {
		t.Helper()
		num := new(big.Int)
		for i := 2; i >= 0; i-- {
			num.Lsh(num, 64).Or(num, new(big.Int).SetUint64(n[i]))
		}
		den := new(big.Int).Mul(new(big.Int).SetUint64(d), new(big.Int).SetUint64(p))
		den.Lsh(den, 84)
		want, _ := new(big.Rat).SetFrac(num, den).Float64()
		if got := ratio(n, d, p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ratio(%x, %d, %d) = %v, big.Rat %v", n, d, p, got, want)
		}
	}
	for i := 0; i < 20000; i++ {
		n := wide{r.Uint64(), r.Uint64(), r.Uint64() >> (12 + r.Intn(52))}
		if i%3 == 0 {
			n = wide{r.Uint64() >> r.Intn(64), 0, 0}
		}
		d := 1 + r.Uint64()>>r.Intn(64)
		p := 1 + r.Uint64()>>(1+r.Intn(63))
		check(n, d, p)
	}
	// Halfway cases: a 54-bit odd quotient (a tie at the 53rd bit) over
	// exact divisors, both ways of breaking the tie.
	for _, q := range []uint64{1<<53 + 1, 1<<53 + 3, 1<<54 - 1} {
		for _, dp := range [][2]uint64{{1, 1}, {3, 5}, {1 << 40, 1 << 62}, {10, 1<<63 - 1}} {
			hi, lo := bits.Mul64(q, dp[0])
			n := wide{lo, hi, 0}
			// n·p, 192 bits: multiply both words by p.
			h0, l0 := bits.Mul64(n[0], dp[1])
			h1, l1 := bits.Mul64(n[1], dp[1])
			mid, c := bits.Add64(h0, l1, 0)
			check(wide{l0, mid, h1 + c}, dp[0], dp[1])
		}
	}
	check(wide{}, 7, 9)
	check(wide{^uint64(0), ^uint64(0), 1<<52 - 1}, 1, 1)
}

// TestAveragePairwise: three single-worker parts in bins 0, 9 and 5 of ten
// are 0.9, 0.5 and 0.4 apart in score units, so their average is 0.6,
// which the exact average returns as the float64 nearest 0.6.
func TestAveragePairwise(t *testing.T) {
	b := dataset.NewBuilder(testSchema())
	for i, x := range []struct {
		lang  string
		score float64
	}{{"English", 0.05}, {"Indian", 0.95}, {"Other", 0.55}} {
		b.Add(fmt.Sprint(i), map[string]any{"Gender": "Male", "Language": x.lang}, map[string]any{"Score": x.score})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEvaluator(ds, scoreFunc, Config{Bins: 10})
	if err != nil {
		t.Fatal(err)
	}
	parts := partition.Split(ds, partition.Root(ds), 1)
	if got := e.AvgPairwise(parts); len(parts) != 3 || got != 0.6 {
		t.Fatalf("AvgPairwise over %d parts = %v, want 0.6", len(parts), got)
	}
}

// TestAveragePairwiseDegenerate: no parts and one part average 0 on every
// route of the one average — the identity and the pair path — and so does
// any number of parts when a single bin leaves GroundIndex no distance
// between bins.
func TestAveragePairwiseDegenerate(t *testing.T) {
	ds := randomDataset(t, 30, 3)
	root := partition.Root(ds)
	for _, cfg := range []Config{
		{}, {Metric: emd.MetricL1}, {Metric: emd.MetricTV}, {Metric: emd.MetricKS}, {Exact: true},
	} {
		e := mustEval(t, ds, cfg)
		if got := e.average(nil, nil, 1); got != 0 {
			t.Errorf("%+v: no parts average %v", cfg, got)
		}
		if got := e.average(nil, []*rep{{data: e.buildData(root.Indices)}}, 1); got != 0 {
			t.Errorf("%+v: one part averages %v", cfg, got)
		}
	}
	e := mustEval(t, ds, Config{Bins: 1, Ground: emd.GroundIndex})
	if parts := partition.Split(ds, root, 1); len(parts) < 2 || e.AvgPairwise(parts) != 0 {
		t.Errorf("one bin under GroundIndex: %d parts average %v", len(parts), e.AvgPairwise(parts))
	}
}

// TestUnbalancedRejectsExactTie: Algorithm 2 replaces a part only if the
// average increases. Here the first split (on B) leaves B=x = {0.05,
// 0.25} beside B=y = {0.35, 0.35, 0.35}, 0.2 apart. Splitting B=x on C
// gives three parts 0.2, 0.1 and 0.3 apart, whose average is 0.2 again,
// exactly, so the split is rejected and the audit keeps two parts. A pair
// sum in float64 reads (0.2 + 0.1 + 0.3)/3 as 0.20000000000000004, above
// the current 0.2, and accepted the split into three parts.
func TestUnbalancedRejectsExactTie(t *testing.T) {
	schema := &dataset.Schema{
		Protected: []dataset.Attribute{
			dataset.Cat("A", "a", "b", "c"),
			dataset.Cat("B", "x", "y", "z"),
			dataset.Cat("C", "p", "q"),
		},
		Observed: []dataset.Attribute{dataset.Num("Score", 0, 1, 1)},
	}
	b := dataset.NewBuilder(schema)
	for i, w := range []struct {
		a, b, c string
		score   float64
	}{
		{"a", "x", "q", 0.05},
		{"c", "y", "q", 0.35},
		{"c", "y", "q", 0.35},
		{"a", "x", "p", 0.25},
		{"b", "y", "p", 0.35},
	} {
		b.Add(fmt.Sprint(i), map[string]any{"A": w.a, "B": w.b, "C": w.c}, map[string]any{"Score": w.score})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, Spec{Algorithm: "unbalanced", Evaluator: mustEval(t, ds, Config{Bins: 10})})
	if len(res.Steps) < 2 {
		t.Fatalf("steps %+v", res.Steps)
	}
	if tie := res.Steps[1]; tie.Attribute != 2 || tie.AvgDistance != 0.2 || tie.Accepted {
		t.Fatalf("split of B=x on C: %+v; want average 0.2, rejected", tie)
	}
	if res.Partitioning.Size() != 2 || res.Unfairness != 0.2 {
		t.Fatalf("%d parts, unfairness %v; want B=x and B=y, 0.2", res.Partitioning.Size(), res.Unfairness)
	}
}
