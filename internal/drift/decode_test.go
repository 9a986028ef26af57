package drift

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"fairrank/internal/rng"
)

// eventBatch is the wire shape of an ingest body.
type eventBatch struct {
	Events []Event `json:"events"`
}

// decodeEventsOracle is the encoding/json decoder DecodeEvents replaced:
// the reference for what a body decodes to and whether it is accepted.
func decodeEventsOracle(data []byte) ([]Event, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b eventBatch
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("drift: bad events json: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("drift: trailing data after events json")
	}
	if len(b.Events) == 0 {
		return nil, errors.New("drift: empty event batch")
	}
	if len(b.Events) > MaxEventBatch {
		return nil, fmt.Errorf("drift: batch of %d exceeds limit %d", len(b.Events), MaxEventBatch)
	}
	for i, e := range b.Events {
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("drift: event %d: %w", i, err)
		}
	}
	return b.Events, nil
}

func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	got, err := DecodeEvents(data)
	want, wantErr := decodeEventsOracle(data)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("accept/reject differs from encoding/json:\n decoder: %v\n oracle:  %v\ninput: %q", err, wantErr, data)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("events differ from encoding/json:\n decoder: %#v\n oracle:  %#v\ninput: %q", got, want, data)
	}
	// Semantic rejections keep their texts; only the JSON-level ones
	// (offsets, wording) and the batch limit's may differ.
	if err != nil && !strings.Contains(wantErr.Error(), "bad events json") &&
		!strings.Contains(wantErr.Error(), "exceeds limit") && err.Error() != wantErr.Error() {
		t.Fatalf("error text differs:\n decoder: %v\n oracle:  %v\ninput: %q", err, wantErr, data)
	}
}

// FuzzDecodeEvents holds the single-pass decoder to encoding/json on every
// input: the same accept/reject decision and, when accepted, the same
// events. Its committed corpus covers escapes and surrogate pairs, invalid
// UTF-8, case-folded and repeated keys, null fields, nested, boolean and
// numeric protected values, out-of-range numbers and trailing bytes.
func FuzzDecodeEvents(f *testing.F) {
	f.Add([]byte(`{"events":[{"type":"join","worker":"w1","protected":{"Gender":"Female"},"score":0.7},{"type":"leave","worker":"w1"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstOracle(t, data)
	})
}

// TestDecodeEventsMatchesOracle runs the cases whose encoding/json
// behaviour is least obvious: repeated "events" keys reusing elements
// a shorter array truncated, nesting at the depth limit, and the
// boundaries of the batch limit.
func TestDecodeEventsMatchesOracle(t *testing.T) {
	leave := func(n int) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = fmt.Sprintf(`{"type":"leave","worker":"w%d"}`, i)
		}
		return strings.Join(parts, ",")
	}
	nested := func(depth int) string {
		// The batch object, the events array, the event object and the
		// protected object take four levels.
		return `{"events":[{"type":"join","worker":"a","protected":{"G":` +
			strings.Repeat("[", depth-4) + strings.Repeat("]", depth-4) + `}}]}`
	}
	for _, body := range []string{
		`{"events":[{"type":"leave","worker":"a"},{"type":"leave","worker":"b"},{"type":"leave","worker":"c"}],"events":[{"worker":"d"}],"events":[null,null,{"type":"rescore"}]}`,
		`{"events":[{"type":"leave","worker":"a"},{"type":"leave","worker":"b"}],"events":[],"events":[null,{"type":"leave","worker":"c"}]}`,
		`{"events":[{"type":"leave","worker":"a"},{"type":"leave","worker":"b"}],"events":null,"events":[{"type":"leave","worker":"c"}]}`,
		`{"events":[{"type":"join","worker":"a","protected":{"G":"x","H":1}}],"events":[{"protected":{"H":[2]},"protected":{"K":{}}}]}`,
		`{"events":[{"type":"join","worker":"a","protected":{"G":"x"},"protected":null}]}`,
		nested(maxDepth), nested(maxDepth + 1),
		`{"events":[` + leave(MaxEventBatch) + `]}`,
		`{"events":[` + leave(MaxEventBatch+1) + `]}`,
	} {
		checkAgainstOracle(t, []byte(body))
	}
}

// serveBatch is a serve-7300-shaped ingest body: 256 events, 40% joins
// with two categorical attributes, 30% rescores and 30% leaves.
func serveBatch(seed uint64) []byte {
	r := rng.New(seed)
	evs := make([]Event, 256)
	for i := range evs {
		id := fmt.Sprintf("n%07d", r.Intn(1_000_000))
		switch k := r.Intn(10); {
		case k < 4:
			evs[i] = Event{Type: EventJoin, Worker: id, Score: r.Float64(), Protected: map[string]any{
				"Gender": rng.Pick(r, []string{"Male", "Female"}), "Country": rng.Pick(r, []string{"America", "India", "Other"})}}
		case k < 7:
			evs[i] = Event{Type: EventRescore, Worker: id, Score: r.Float64()}
		default:
			evs[i] = Event{Type: EventLeave, Worker: id}
		}
	}
	body, err := json.Marshal(map[string]any{"events": evs})
	if err != nil {
		panic(err)
	}
	return body
}

// allocated returns the bytes and objects one call of decode allocates,
// the least over a few calls.
func allocated(t *testing.T, decode func([]byte) ([]Event, error), body []byte) (bytes, objects uint64) {
	t.Helper()
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		if _, err := decode(body); err != nil && !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		b, o := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		if i == 0 || b < bytes {
			bytes, objects = b, o
		}
	}
	return bytes, objects
}

// TestDecodeEventsAllocsHalve pins the point of the single-pass decoder:
// a serve-7300-shaped batch decodes with at most half the bytes and half
// the allocations encoding/json needs.
func TestDecodeEventsAllocsHalve(t *testing.T) {
	body := serveBatch(1)
	nb, no := allocated(t, DecodeEvents, body)
	ob, oo := allocated(t, decodeEventsOracle, body)
	t.Logf("256-event batch: %d B in %d allocs, encoding/json %d B in %d allocs", nb, no, ob, oo)
	if 2*nb > ob || 2*no > oo {
		t.Fatalf("decoder allocates %d B in %d allocs, more than half of encoding/json's %d B in %d allocs", nb, no, ob, oo)
	}
}

// TestDecodeEventsStopsAtLimit sends the largest body the events route
// reads — 8 MiB of leave events, 26× the batch limit — and requires the
// decoder to give up at the 10 001st event: it may allocate no more than
// twice what a full 10 000-event batch costs.
func TestDecodeEventsStopsAtLimit(t *testing.T) {
	var big bytes.Buffer
	big.WriteString(`{"events":[`)
	for i := 0; big.Len() < 8<<20-64; i++ {
		if i > 0 {
			big.WriteByte(',')
		}
		fmt.Fprintf(&big, `{"type":"leave","worker":"w%07d"}`, i)
	}
	big.WriteString(`]}`)
	full := []byte(`{"events":[` + strings.Repeat(`{"type":"leave","worker":"w0000000"},`, MaxEventBatch-1) + `{"type":"leave","worker":"w0000000"}]}`)
	if _, err := DecodeEvents(big.Bytes()); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("8 MiB body: got %v, want the batch limit", err)
	}
	fb, _ := allocated(t, DecodeEvents, full)
	bb, _ := allocated(t, DecodeEvents, big.Bytes())
	t.Logf("10 000 events: %d B; %d B body: %d B", fb, big.Len(), bb)
	if bb > 2*fb {
		t.Fatalf("rejecting the %d B body allocated %d B, over twice a full batch's %d B", big.Len(), bb, fb)
	}
}

// BenchmarkDecodeEvents compares the decoder with encoding/json on a
// serve-7300-shaped batch.
func BenchmarkDecodeEvents(b *testing.B) {
	body := serveBatch(1)
	for _, c := range []struct {
		name   string
		decode func([]byte) ([]Event, error)
	}{{"decoder=single-pass", DecodeEvents}, {"decoder=encoding-json", decodeEventsOracle}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := c.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
