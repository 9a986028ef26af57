package histogram

import (
	"testing"

	"fairrank/internal/testkit"
)

// FuzzHistogram feeds arbitrary byte-decoded values — including NaN, ±Inf
// and out-of-range magnitudes via SpecialFloats — through the histogram. It
// may not panic, must agree with the oracle's branchy counting bin-for-bin
// and must never lose mass.
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{8, 10, 20, 30, 100, 200, 250})
	f.Add([]byte{4, 255})           // NaN
	f.Add([]byte{6, 254, 253, 252}) // ±Inf and below-range
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		bins := int(data[0])%20 + 1
		vals := testkit.SpecialFloats(data[1:])

		h := MustNew(bins, 0, 1)
		h.AddAll(vals)
		if h.Total() != float64(len(vals)) {
			t.Fatalf("total = %v, added %d values", h.Total(), len(vals))
		}
		var o testkit.Oracle
		want := o.Counts(vals, bins, 0, 1)
		for i, c := range h.Counts() {
			if c != want[i] {
				t.Fatalf("bin %d: count %v, oracle %v (vals=%v)", i, c, want[i], vals)
			}
		}
	})
}
