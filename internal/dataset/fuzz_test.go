package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzSnapshotDecode ensures arbitrary bytes never panic the columnar
// snapshot reader: every rejection must be ErrCorrupt, and anything that
// parses must be a coherent dataset that survives a full re-serialize /
// re-parse cycle. Seeds cover the documented failure classes — truncated
// headers, corrupted checksums, overlapping block tables — plus a valid
// snapshot; the same seeds are committed under testdata/fuzz/ (see
// TestSnapshotFuzzCorpusCommitted) so plain `go test` replays them.
func FuzzSnapshotDecode(f *testing.F) {
	for _, seed := range snapshotFuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ReadSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-ErrCorrupt rejection: %v", err)
			}
			return
		}
		if ds.N() <= 0 {
			t.Fatal("parsed dataset with non-positive N")
		}
		if err := ds.Schema().Validate(); err != nil {
			t.Fatalf("parsed dataset with invalid schema: %v", err)
		}
		var buf bytes.Buffer
		if err := ds.WriteSnapshot(&buf); err != nil {
			t.Fatalf("re-serialize: %v", err)
		}
		back, err := ReadSnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if back.N() != ds.N() {
			t.Fatalf("round-trip N = %d, want %d", back.N(), ds.N())
		}
	})
}

// snapshotFuzzSeeds builds the seed inputs shared by the fuzz target and
// the committed corpus, keyed by a filename-safe name: one valid snapshot
// plus every corruption from snapshotCorruptions. The seeds are fully
// deterministic (fixed builder input, canonical writer), which is what lets
// TestSnapshotFuzzCorpusCommitted diff them against testdata.
func snapshotFuzzSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	ds, err := NewBuilder(testSchema()).
		Add("w1", map[string]any{"Gender": "Male", "Country": "India", "YearOfBirth": 1984},
			map[string]any{"LanguageTest": 80.0, "ApprovalRate": 55.0}).
		Add("w2", map[string]any{"Gender": "Female", "Country": "America", "YearOfBirth": 1999},
			map[string]any{"LanguageTest": 90.0, "ApprovalRate": 70.0}).
		Build()
	if err != nil {
		tb.Fatal(err)
	}
	var valid bytes.Buffer
	if err := ds.WriteSnapshot(&valid); err != nil {
		tb.Fatal(err)
	}
	seeds := map[string][]byte{"valid": valid.Bytes()}
	for name, data := range snapshotCorruptions(valid.Bytes()) {
		seeds[strings.ReplaceAll(name, " ", "-")] = data
	}
	return seeds
}

// TestSnapshotFuzzCorpusCommitted pins the seed corpus under
// testdata/fuzz/FuzzSnapshotDecode to the seeds the fuzz target uses, so
// plain `go test` replays the documented failure classes. Regenerate with
// UPDATE_FUZZ_CORPUS=1.
func TestSnapshotFuzzCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode")
	seeds := snapshotFuzzSeeds(t)
	if os.Getenv("UPDATE_FUZZ_CORPUS") != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range seeds {
			entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
			if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(entry), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, data := range seeds {
		path := filepath.Join(dir, "seed-"+name)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("corpus entry missing (regenerate with UPDATE_FUZZ_CORPUS=1): %v", err)
		}
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if string(got) != want {
			t.Errorf("corpus entry %s is stale (regenerate with UPDATE_FUZZ_CORPUS=1)", name)
		}
	}
}

// FuzzReadCSV ensures arbitrary CSV input never panics the reader.
func FuzzReadCSV(f *testing.F) {
	f.Add("id,Gender,Country,YearOfBirth,LanguageTest,ApprovalRate\nw,Male,India,1984,80,55\n")
	f.Add("id,Gender\n")
	f.Add("")
	f.Add("id,Gender,Country,YearOfBirth,LanguageTest,ApprovalRate\nw,Alien,India,1984,80,55\n")
	schema := testSchema()
	f.Fuzz(func(t *testing.T, input string) {
		ds, err := ReadCSV(strings.NewReader(input), schema)
		if err != nil {
			return
		}
		if ds.N() <= 0 {
			t.Fatal("parsed dataset with non-positive N")
		}
	})
}
