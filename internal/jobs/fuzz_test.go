package jobs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzJobSpecJSON pins the wire spec's decode/encode round trip. Specs
// are persisted in job records and replayed verbatim after crashes, so
// every spec DecodeSpec accepts must survive Marshal → DecodeSpec as the
// identical value, and the marshaled form must be a fixed point — any
// representation drift would change job records (and canonical hashes
// derived from resolved specs) across a restart.
func FuzzJobSpecJSON(f *testing.F) {
	f.Add([]byte(`{"dataset":"demo","weights":{"Score":1}}`))
	f.Add([]byte(`{"dataset":"d","weights":{"a":0.5,"b":2},"algorithm":"unbalanced","bins":20,"metric":"emd","attributes":["Gender"],"seed":7,"budget":1000,"priority":-3}`))
	f.Add([]byte(`{"dataset":"d","weights":{"a":1},"attributes":[]}`))
	f.Add([]byte(`{"dataset":"d","weights":{"a":1},"unknown":true}`))
	f.Add([]byte(`{"dataset":"d","weights":{"a":1},"max_attempts":3}`))
	f.Add([]byte(`{"dataset":"d","weights":{"a":-1}}`))
	f.Add([]byte(`{"dataset":"d","weights":{"a":1}}{"trailing":1}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"dataset":"d","weights":{"a":1},"seed":18446744073709551615}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(data)
		if err != nil {
			return // rejected input: only the accept path has invariants
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("DecodeSpec returned an invalid spec: %v\ninput: %q", err, data)
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v\nspec: %+v", err, s)
		}
		s2, err := DecodeSpec(out)
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v\nencoding: %s", err, out)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("spec round trip changed the value:\n  first  %+v\n  second %+v\ninput: %q", s, s2, data)
		}
		out2, err := json.Marshal(s2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("encoding is not a fixed point:\n  first  %s\n  second %s", out, out2)
		}
	})
}
