package marketplace

import "slices"

// Top is a k-bounded selection: it keeps the best k values offered to it
// under cmp, which is negative when a is better than b. Once k values are
// held they form a heap whose root is the worst value kept, so an offer
// that cannot make the cut costs one comparison and one that can costs
// O(log k). Selecting a page of k from n candidates is O(n log k) this
// way, against O(n log n) for sorting the whole pool.
type Top[T any] struct {
	h      []T
	cmp    func(a, b T) int
	heaped bool // h is full and in heap order
}

// NewTop returns an empty selection of the best cap(buf) values under
// cmp, held in buf's backing array.
func NewTop[T any](buf []T, cmp func(a, b T) int) Top[T] {
	return Top[T]{h: buf[:0], cmp: cmp}
}

// Offer adds x to the selection if it is among the best k offered so far.
// Which of two equal values is kept is unspecified, so callers that need
// one answer give cmp a total order.
func (t *Top[T]) Offer(x T) {
	switch {
	case len(t.h) < cap(t.h):
		t.h = append(t.h, x)
	case len(t.h) == 0:
	default:
		if !t.heaped {
			for i := len(t.h)/2 - 1; i >= 0; i-- {
				t.siftDown(i)
			}
			t.heaped = true
		}
		if t.cmp(x, t.h[0]) < 0 {
			t.h[0] = x
			t.siftDown(0)
		}
	}
}

// Sorted returns the kept values best first, sorted in place in the
// selection's buffer; the selection must not be offered more values.
func (t *Top[T]) Sorted() []T {
	slices.SortFunc(t.h, t.cmp)
	return t.h
}

// siftDown restores the heap order below h[i]: no value is better than
// its children.
func (t *Top[T]) siftDown(i int) {
	h := t.h
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && t.cmp(h[c+1], h[c]) > 0 {
			c++
		}
		if t.cmp(h[i], h[c]) >= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// TopK returns the best min(k, len(xs)) values of xs under cmp, best
// first, in a new slice; xs is left as it is. When cmp is a total order
// on xs the result is the prefix a full sort of xs would start with.
func TopK[T any](xs []T, k int, cmp func(a, b T) int) []T {
	t := NewTop(make([]T, 0, max(0, min(k, len(xs)))), cmp)
	for _, x := range xs {
		t.Offer(x)
	}
	return t.Sorted()
}
