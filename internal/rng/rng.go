// Package rng provides a small, deterministic pseudo-random number
// generator used throughout fairrank so that every simulation, dataset and
// experiment is exactly reproducible from a seed, independent of the Go
// version's math/rand implementation details.
//
// The generator is xoshiro256++ seeded via splitmix64, the combination
// recommended by Blackman & Vigna. It is not cryptographically secure; it is
// meant for simulation workloads only.
package rng

// RNG is a deterministic xoshiro256++ pseudo-random number generator.
// The zero value is not valid; use New.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed using splitmix64 so
// that even small or similar seeds produce well-mixed initial state.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[0]+r.s[3], 23) + r.s[0]
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// Dividing by 2⁵³ is a multiply, and a caller that inlines this
	// function could fuse it with an add (2·Float64() becomes a sum of
	// two draws); the conversion rounds the quotient first.
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// IntRange returns a uniformly distributed int in [lo, hi] inclusive.
// It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// FloatRange returns a uniformly distributed float64 in [lo, hi).
// It panics if hi < lo.
func (r *RNG) FloatRange(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: FloatRange with hi < lo")
	}
	return lo + float64(r.Float64()*(hi-lo)) // rounded: no multiply-add fuses
}

// Perm returns a random permutation of [0, n) as a slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher-Yates shuffle over n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Pick returns a uniformly chosen element of choices.
// It panics if choices is empty.
func Pick[T any](r *RNG, choices []T) T {
	return choices[r.Intn(len(choices))]
}

// Split returns a new generator deterministically derived from r's stream,
// useful for giving independent substreams to parallel components.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}
