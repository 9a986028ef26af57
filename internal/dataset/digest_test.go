package dataset

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// openMapped round-trips ds through a snapshot file and maps it.
func openMapped(t *testing.T, ds *Dataset) *Dataset {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ds.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mapped.Close() })
	return mapped
}

// TestDigestEqualAcrossBackings: every way of arriving at the same
// contents — built, decoded from each codec, read or mapped from a
// snapshot, re-assembled with Subset — digests the same, and
// that digest is the SHA-256 of the snapshot stream.
func TestDigestEqualAcrossBackings(t *testing.T) {
	base := buildMany(t, 97)
	var snap bytes.Buffer
	if err := base.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	want := sha256.Sum256(snap.Bytes())
	if got := base.Digest(); got != want {
		t.Fatalf("Digest = %x, want SHA-256 of the snapshot stream %x", got, want)
	}

	var csvBuf, jsonBuf bytes.Buffer
	if err := base.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if err := base.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	mapped := openMapped(t, base)
	all := make([]int, mapped.N())
	for i := range all {
		all[i] = i
	}
	decode := map[string]func() (*Dataset, error){
		"builder":  func() (*Dataset, error) { return buildMany(t, 97), nil },
		"csv":      func() (*Dataset, error) { return ReadCSV(bytes.NewReader(csvBuf.Bytes()), testSchema()) },
		"json":     func() (*Dataset, error) { return ReadJSON(bytes.NewReader(jsonBuf.Bytes()), testSchema()) },
		"snapshot": func() (*Dataset, error) { return ReadSnapshot(snap.Bytes()) },
		"mmap":     func() (*Dataset, error) { return openMapped(t, base), nil },
		"subset of every mapped row": func() (*Dataset, error) {
			return mapped.Subset(all)
		},
	}
	for name, mk := range decode {
		ds, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertSameDataset(t, base, ds)
		if got := ds.Digest(); got != want {
			t.Errorf("%s: digest %x, want %x", name, got, want)
		}
	}
}

// digestRow is one worker of the mutation fixture.
type digestRow struct {
	id      string
	gender  string
	country string
	year    float64
	lang    float64
}

func digestRows() []digestRow {
	rows := make([]digestRow, 12)
	genders := []string{"Male", "Female"}
	countries := []string{"America", "India", "Other"}
	for i := range rows {
		rows[i] = digestRow{
			id:      fmt.Sprintf("w-%02d", i),
			gender:  genders[i%2],
			country: countries[i%3],
			year:    1950 + float64(5*i),
			lang:    25 + 6.25*float64(i),
		}
	}
	// Rows 3 and 4 hold "abc" split one way; a mutation splits it the
	// other way.
	rows[3].id, rows[4].id = "a", "bc"
	return rows
}

func buildRows(t *testing.T, schema *Schema, rows []digestRow) *Dataset {
	t.Helper()
	b := NewBuilder(schema)
	for _, r := range rows {
		b.Add(r.id,
			map[string]any{"Gender": r.gender, "Country": r.country, "YearOfBirth": r.year},
			map[string]any{"LanguageTest": r.lang, "ApprovalRate": 50.0})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestDigestDiffersUnderEachMutation: a change to any one byte of content
// — a code, a raw protected value that keeps its bucket, an observed
// value, an id byte, where one id ends and the next begins, or a category
// name in the schema — changes the digest.
func TestDigestDiffersUnderEachMutation(t *testing.T) {
	base := buildRows(t, testSchema(), digestRows())
	mutations := map[string]func(s *Schema, rows []digestRow){
		"code": func(_ *Schema, rows []digestRow) { rows[5].gender = "Male" },
		"raw protected value": func(_ *Schema, rows []digestRow) {
			rows[5].year += 0.5
		},
		"observed value": func(_ *Schema, rows []digestRow) {
			rows[5].lang = math.Nextafter(rows[5].lang, math.Inf(1))
		},
		"id byte": func(_ *Schema, rows []digestRow) { rows[5].id = "w-0X" },
		"id boundary": func(_ *Schema, rows []digestRow) {
			rows[3].id, rows[4].id = "ab", "c"
		},
		"category name": func(s *Schema, rows []digestRow) {
			// Same codes, one label renamed.
			s.Protected[1] = Cat("Country", "America", "India", "Elsewhere")
			for i := range rows {
				if rows[i].country == "Other" {
					rows[i].country = "Elsewhere"
				}
			}
		},
	}
	for name, mutate := range mutations {
		schema, rows := testSchema(), digestRows()
		mutate(schema, rows)
		ds := buildRows(t, schema, rows)
		if name == "raw protected value" && ds.Code(2, 5) != base.Code(2, 5) {
			t.Fatalf("raw mutation moved the bucket: %d -> %d", base.Code(2, 5), ds.Code(2, 5))
		}
		if ds.Digest() == base.Digest() {
			t.Errorf("%s: digest unchanged (%x)", name, ds.Digest())
		}
	}
}

// TestDigestConcurrentFirstCall: goroutines racing on the first Digest of
// a fresh mapped dataset all see the one full digest (run under -race by
// make verify).
func TestDigestConcurrentFirstCall(t *testing.T) {
	base := buildMany(t, 300)
	want := base.Digest()
	mapped := openMapped(t, base)
	const workers = 8
	got := make([][sha256.Size]byte, workers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = mapped.Digest()
		}()
	}
	wg.Wait()
	for g, d := range got {
		if d != want {
			t.Errorf("goroutine %d: digest %x, want %x", g, d, want)
		}
	}
}

// TestSeedDigest: Digest returns a seeded digest without hashing — the
// caller vouches for it, so even a wrong seed comes back — and a seed
// after the first Digest changes nothing.
func TestSeedDigest(t *testing.T) {
	base := buildMany(t, 50)
	want := base.Digest()
	seeded := openMapped(t, base)
	seeded.SeedDigest([sha256.Size]byte{1})
	if got := seeded.Digest(); got != ([sha256.Size]byte{1}) {
		t.Fatalf("seeded digest %x, want the seed", got)
	}
	base.SeedDigest([sha256.Size]byte{1})
	if got := base.Digest(); got != want {
		t.Fatalf("seed after the first Digest changed it to %x", got)
	}
}
