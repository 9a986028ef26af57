package rerank

import (
	"fmt"

	"fairrank/internal/dataset"
	"fairrank/internal/marketplace"
)

// split is a candidate pool split by the value code of a protected
// attribute, for a page of n candidates. Iterating groups by code
// (0..cardinality-1) is the package's canonical deterministic group
// order — no map iteration anywhere on a serving path.
type split struct {
	// queues holds each group's best min(n, count) candidates in page
	// order (marketplace.ByScore). A page of n never places more than n
	// from one group, so a queue can run dry only once the group's whole
	// pool is placed or the page is full.
	queues [][]marketplace.RankedWorker
	// counts holds each group's full pool count: shares and interval
	// bounds read these, never a queue's length.
	counts []int
	// size is the pool size, the sum of counts.
	size int
}

// splitPool validates the pool against ds and splits it by the protected
// attribute for a page of n candidates. One pass counts the groups; a
// second offers every candidate to its group's k-bounded selection, held
// in one exactly sized buffer, so a page costs O(len(pool)·log n).
// Queues of absent groups are empty.
func splitPool(ds *dataset.Dataset, attr int, pool []marketplace.RankedWorker, n int) (split, error) {
	if len(pool) == 0 {
		return split{}, errEmptyPool
	}
	if attr < 0 || attr >= len(ds.Schema().Protected) {
		return split{}, fmt.Errorf("rerank: protected attribute %d out of range", attr)
	}
	counts := make([]int, ds.Schema().Protected[attr].Cardinality())
	for _, rw := range pool {
		if rw.Worker < 0 || rw.Worker >= ds.N() {
			return split{}, fmt.Errorf("rerank: worker %d out of range", rw.Worker)
		}
		counts[ds.Code(attr, rw.Worker)]++
	}
	total := 0
	for _, c := range counts {
		total += min(n, c)
	}
	buf := make([]marketplace.RankedWorker, total)
	tops := make([]marketplace.Top[marketplace.RankedWorker], len(counts))
	for g, c := range counts {
		c = min(n, c)
		tops[g] = marketplace.NewTop(buf[:c:c], marketplace.ByScore)
		buf = buf[c:]
	}
	for _, rw := range pool {
		tops[ds.Code(attr, rw.Worker)].Offer(rw)
	}
	queues := make([][]marketplace.RankedWorker, len(counts))
	for g := range tops {
		queues[g] = tops[g].Sorted()
	}
	return split{queues: queues, counts: counts, size: len(pool)}, nil
}
