package core

import (
	"sync"
	"sync/atomic"
)

// cacheShards is the shard count of the rep cache, a power of two so a
// shard is the top shardBits bits of a hashed key.
const (
	shardBits   = 6
	cacheShards = 1 << shardBits
)

// rep is the interned representation of one partition's score
// distribution: a dense handle plus the payload the configured mode
// compares — the binned column in binned mode (Evaluator.payload), the
// sorted score sample in Exact mode. Reps are immutable once published.
type rep struct {
	id   uint32
	data []float64
}

// repCache hands out the dense rep handles of one evaluator. The root of
// the row space takes one when the row space is built (newRep); every
// other rep is a scatter-split child, interned under (parent handle,
// attribute, value) — which fully determines the child's content — so
// re-probes of a split are served without touching the rows. The keyed
// layer is sharded so concurrent candidate probes do not serialize on a
// single mutex.
type repCache struct {
	next   atomic.Uint32 // dense handles handed out so far
	shards [cacheShards]repShard
}

type repShard struct {
	mu sync.RWMutex
	m  map[uint64]*rep
}

func newRepCache() *repCache {
	c := &repCache{}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]*rep)
	}
	return c
}

// shardOf spreads an integer key across shards by Fibonacci hashing: the
// top bits of k·2⁶⁴/φ depend on every bit of k. (Its low bits depend only
// on k's low bits, which for a child key are the value code alone.)
func (c *repCache) shardOf(k uint64) *repShard {
	return &c.shards[(k*0x9E3779B97F4A7C15)>>(64-shardBits)]
}

// newRep hands out a handle for a rep that is kept outside the keyed
// layer: the root of the row space.
func (c *repCache) newRep(data []float64) *rep {
	return &rep{id: c.next.Add(1) - 1, data: data}
}

// childKey packs a scatter-split child identity. Attribute indices and
// value codes are both far below 16 bits (codes are uint16 in the
// dataset), so the triple fits one word.
func childKey(parent uint32, attr, value int) uint64 {
	return uint64(parent)<<32 | uint64(attr)<<16 | uint64(value)
}

// lookupChild returns the interned rep of a scatter-split child, if any.
func (c *repCache) lookupChild(key uint64) (*rep, bool) {
	s := c.shardOf(key)
	s.mu.RLock()
	r, ok := s.m[key]
	s.mu.RUnlock()
	return r, ok
}

// internChild publishes a scatter-split child rep, keeping the first
// writer's rep on a race so handles stay stable.
func (c *repCache) internChild(key uint64, data []float64) *rep {
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.m[key]; ok {
		return r
	}
	r := c.newRep(data)
	s.m[key] = r
	return r
}

// count reports how many reps were handed out.
func (c *repCache) count() int { return int(c.next.Load()) }

// shardLens reports the keyed layer's per-shard occupancy: shardLens()[i]
// is how many child reps shard i holds. They sum to count() − 1 once the
// root's rep exists.
func (c *repCache) shardLens() []int {
	out := make([]int, cacheShards)
	for i := range out {
		s := &c.shards[i]
		s.mu.RLock()
		out[i] = len(s.m)
		s.mu.RUnlock()
	}
	return out
}
