package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided %d/100 times", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		t.Fatal("all-zero state after seeding with 0")
	}
	// Must still produce varied output.
	seen := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 10 {
		t.Fatalf("only %d distinct values in 10 draws", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Fatalf("bucket %d: %d draws, want ~%v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRange(t *testing.T) {
	r := New(9)
	lo, hi := 1950, 2009
	seenLo, seenHi := false, false
	for i := 0; i < 50000; i++ {
		v := r.IntRange(lo, hi)
		if v < lo || v > hi {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
		seenLo = seenLo || v == lo
		seenHi = seenHi || v == hi
	}
	if !seenLo || !seenHi {
		t.Fatalf("endpoints never drawn: lo=%v hi=%v", seenLo, seenHi)
	}
}

func TestIntRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("IntRange(2,1) did not panic")
		}
	}()
	New(1).IntRange(2, 1)
}

func TestFloatRange(t *testing.T) {
	r := New(13)
	for i := 0; i < 10000; i++ {
		v := r.FloatRange(25, 100)
		if v < 25 || v >= 100 {
			t.Fatalf("FloatRange out of bounds: %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(19)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPick(t *testing.T) {
	r := New(23)
	choices := []string{"a", "b", "c"}
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		counts[Pick(r, choices)]++
	}
	for _, c := range choices {
		if counts[c] < 800 {
			t.Fatalf("choice %q drawn only %d/3000 times", c, counts[c])
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(29)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d/100 times", same)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestMul64MatchesBig(t *testing.T) {
	// Property: low 64 bits of the product must equal wrapping multiply.
	f := func(a, b uint64) bool {
		_, lo := mul64(a, b)
		return lo == a*b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShuffleCoverage(t *testing.T) {
	// All 6 permutations of 3 elements should occur.
	r := New(31)
	seen := map[[3]int]bool{}
	for i := 0; i < 600; i++ {
		arr := [3]int{0, 1, 2}
		r.Shuffle(3, func(i, j int) { arr[i], arr[j] = arr[j], arr[i] })
		seen[arr] = true
	}
	if len(seen) != 6 {
		t.Fatalf("only %d/6 permutations observed", len(seen))
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}
