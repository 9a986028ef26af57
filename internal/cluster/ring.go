// Package cluster federates fairserve nodes into a multi-node audit
// cluster: static membership with heartbeat liveness, a consistent-hash
// ring keyed on canonical spec hashes for job placement (cluster-wide
// singleflight dedup falls out of the keying), work-stealing between
// idle and loaded nodes, and snapshot auto-hydration so a dataset
// uploaded to any node becomes auditable everywhere.
//
// The package speaks to peers over their public HTTP API plus the
// /v1/cluster/* peer protocol (protocol.go); it never imports the
// server package. The local process is abstracted behind the Node
// interface, implemented by *server.Server.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// vnodesPerNode is how many points each node contributes to the ring.
// More points smooth the keyspace split between nodes; 64 keeps the
// per-node imbalance in the low percents for small clusters while the
// whole ring stays a few KB.
const vnodesPerNode = 64

// ring is an immutable consistent-hash ring over node IDs. Lookup walks
// clockwise from the key's hash to the next virtual node; a key moves
// only when its arc's owner joins or leaves, so membership changes
// re-place an ~1/N share of the keyspace instead of reshuffling it all.
type ring struct {
	points []ringPoint // sorted by hash
	ids    []string    // member node IDs, sorted
}

type ringPoint struct {
	hash uint64
	node string
}

// hash64 maps a string onto the ring's keyspace. SHA-256 is already the
// spec-hash primitive (core.Spec.Hash), so placement inherits its
// uniformity; the first 8 bytes are plenty for 64-vnode rings.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// newRing builds a ring over the given node IDs (deduplicated; empty
// IDs ignored). A ring over zero nodes is valid and owns nothing.
func newRing(nodes []string) *ring {
	seen := map[string]bool{}
	r := &ring{}
	for _, id := range nodes {
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		r.ids = append(r.ids, id)
		for i := 0; i < vnodesPerNode; i++ {
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], uint64(i))
			r.points = append(r.points, ringPoint{
				hash: hash64(id + "#" + string(buf[:])),
				node: id,
			})
		}
	}
	sort.Strings(r.ids)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by node ID so every ring
		// built over the same membership is identical on every node.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// owner returns the node owning key, or "" when the ring is empty.
func (r *ring) owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point owns the arc past the last hash
	}
	return r.points[i].node
}

// nodes returns the member IDs, sorted.
func (r *ring) nodes() []string { return r.ids }

// share returns each node's fraction of the keyspace — the observable
// behind the per-node ring-ownership gauge.
func (r *ring) share() map[string]float64 {
	out := map[string]float64{}
	if len(r.points) == 0 {
		return out
	}
	const whole = float64(1<<63) * 2 // 2^64 as float
	for i, p := range r.points {
		var arc uint64
		if i == 0 {
			// First point owns from the last point, wrapping through zero.
			arc = p.hash + (^r.points[len(r.points)-1].hash + 1)
		} else {
			arc = p.hash - r.points[i-1].hash
		}
		// Dividing by 2⁶⁴ is a multiply the compiler may fuse with the
		// add; the conversion rounds the quotient first.
		out[p.node] += float64(float64(arc) / whole)
	}
	return out
}
