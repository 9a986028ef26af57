package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// buildMany builds a dataset with n workers covering every protected value
// combination and a spread of observed values, including exact-boundary and
// fractional floats so round-trips must be bit-exact.
func buildMany(t testing.TB, n int) *Dataset {
	t.Helper()
	b := NewBuilder(testSchema())
	genders := []string{"Male", "Female"}
	countries := []string{"America", "India", "Other"}
	for i := 0; i < n; i++ {
		b.Add(fmt.Sprintf("worker-%04d", i),
			map[string]any{
				"Gender":      genders[i%2],
				"Country":     countries[i%3],
				"YearOfBirth": 1950 + float64(i%60) + 0.25,
			},
			map[string]any{
				"LanguageTest": 25 + 75*float64(i)/float64(n),
				"ApprovalRate": 100 - 75*float64(i%7)/7.0,
			})
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// assertSameDataset checks that two datasets are bit-identical: same
// schema, ids, codes, raw and observed values (NaN-aware on raws).
func assertSameDataset(t *testing.T, want, got *Dataset) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("N = %d, want %d", got.N(), want.N())
	}
	if err := sameSchema(want.Schema(), got.Schema()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < want.N(); i++ {
		if got.ID(i) != want.ID(i) {
			t.Fatalf("ID(%d) = %q, want %q", i, got.ID(i), want.ID(i))
		}
	}
	for a := range want.Schema().Protected {
		wc, gc := want.CodeColumn(a), got.CodeColumn(a)
		wr, gr := want.RawProtectedColumn(a), got.RawProtectedColumn(a)
		for i := range wc {
			if gc[i] != wc[i] {
				t.Fatalf("code[%d][%d] = %d, want %d", a, i, gc[i], wc[i])
			}
			if math.Float64bits(gr[i]) != math.Float64bits(wr[i]) {
				t.Fatalf("raw[%d][%d] = %v, want %v", a, i, gr[i], wr[i])
			}
		}
	}
	for a := range want.Schema().Observed {
		wo, go_ := want.ObservedColumn(a), got.ObservedColumn(a)
		for i := range wo {
			if math.Float64bits(go_[i]) != math.Float64bits(wo[i]) {
				t.Fatalf("observed[%d][%d] = %v, want %v", a, i, go_[i], wo[i])
			}
		}
	}
}

// sameSchema checks structural equality of two schemas.
func sameSchema(a, b *Schema) error {
	if len(a.Protected) != len(b.Protected) || len(a.Observed) != len(b.Observed) {
		return errors.New("dataset: schemas differ in attribute counts")
	}
	check := func(x, y Attribute) error {
		if x.Name != y.Name || x.Kind != y.Kind || x.Min != y.Min || x.Max != y.Max || x.Buckets != y.Buckets {
			return fmt.Errorf("dataset: attribute %q differs between schemas", x.Name)
		}
		if len(x.Values) != len(y.Values) {
			return fmt.Errorf("dataset: attribute %q differs in values", x.Name)
		}
		for i := range x.Values {
			if x.Values[i] != y.Values[i] {
				return fmt.Errorf("dataset: attribute %q differs in values", x.Name)
			}
		}
		return nil
	}
	for i := range a.Protected {
		if err := check(a.Protected[i], b.Protected[i]); err != nil {
			return err
		}
	}
	for i := range a.Observed {
		if err := check(a.Observed[i], b.Observed[i]); err != nil {
			return err
		}
	}
	return nil
}

func TestSnapshotRoundTripInMemory(t *testing.T) {
	ds := buildMany(t, 101)
	var buf bytes.Buffer
	if err := ds.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	assertSameDataset(t, ds, back)
}

func TestSnapshotRoundTripMmap(t *testing.T) {
	ds := buildMany(t, 257)
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
	back, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDataset(t, ds, back)
	if err := back.Close(); err != nil {
		t.Fatal(err)
	}
	if err := back.Close(); err != nil {
		t.Fatal(err) // Close is idempotent
	}
}

// TestSnapshotReserialize proves a mapped dataset can write itself back out
// (the server's adopt path) byte-identically.
func TestSnapshotReserialize(t *testing.T) {
	ds := buildMany(t, 64)
	var first bytes.Buffer
	if err := ds.WriteSnapshot(&first); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(first.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := back.WriteSnapshot(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("re-serialized snapshot differs from original")
	}
}

// TestSnapshotUnalignedBase forces the copy fallback: the snapshot is
// decoded from a deliberately misaligned byte slice, which must still
// produce identical values.
func TestSnapshotUnalignedBase(t *testing.T) {
	ds := buildMany(t, 33)
	var buf bytes.Buffer
	if err := ds.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	shifted := make([]byte, buf.Len()+1)
	copy(shifted[1:], buf.Bytes())
	back, err := ReadSnapshot(shifted[1:])
	if err != nil {
		t.Fatal(err)
	}
	assertSameDataset(t, ds, back)
}

// TestSnapshotCOWSurvivesClose: Subset over a snapshot-backed dataset
// owns its storage — it stays valid after the snapshot unmaps.
func TestSnapshotCOWSurvivesClose(t *testing.T) {
	ds := buildMany(t, 40)
	path := filepath.Join(t.TempDir(), "ds.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	mapped, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := mapped.Subset([]int{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := mapped.Close(); err != nil {
		t.Fatal(err)
	}
	// Touch every column of the subset: would fault if it aliased the
	// unmapped region.
	if sub.N() != 3 || sub.ID(0) != ds.ID(3) {
		t.Fatal("subset wrong after close")
	}
	for a := range sub.Schema().Protected {
		_ = sub.CodeColumn(a)[2]
		_ = sub.RawProtectedColumn(a)[2]
	}
	for a := range sub.Schema().Observed {
		_ = sub.ObservedColumn(a)[2]
	}
}

// corruptions maps a name to a mutation of a valid snapshot; every mutated
// snapshot must fail to decode with ErrCorrupt.
func snapshotCorruptions(valid []byte) map[string][]byte {
	flip := func(off int) []byte {
		c := append([]byte(nil), valid...)
		c[off] ^= 0xff
		return c
	}
	out := map[string][]byte{
		"empty":            {},
		"magic only":       []byte(snapshotMagic),
		"truncated header": valid[:10],
		"truncated body":   valid[:len(valid)/2],
		"missing trailer":  valid[:len(valid)-snapTrailerLen],
		"bad head magic":   flip(0),
		"bad tail magic":   flip(len(valid) - 1),
		"bad version":      flip(8),
		"flip data byte":   flip(20), // inside the schema block → block CRC
	}
	// Oversized footer length claim.
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[len(huge)-snapTrailerLen:], uint32(len(huge)))
	out["absurd footer len"] = huge
	// Overlapping blocks: rewrite block 1's offset to block 0's, refreshing
	// the footer CRC so only the overlap check can object.
	overlap := append([]byte(nil), valid...)
	fl := binary.LittleEndian.Uint32(overlap[len(overlap)-snapTrailerLen:])
	fStart := len(overlap) - snapTrailerLen - int(fl)
	e0 := fStart + 16
	e1 := e0 + snapFooterEntryLen
	copy(overlap[e1:e1+8], overlap[e0:e0+8])
	body := overlap[fStart : len(overlap)-snapTrailerLen-4]
	binary.LittleEndian.PutUint32(overlap[len(overlap)-snapTrailerLen-4:], crc32.ChecksumIEEE(body))
	out["overlapping blocks"] = overlap
	// Zero worker count, footer CRC refreshed likewise.
	zero := append([]byte(nil), valid...)
	fStartZ := len(zero) - snapTrailerLen - int(fl)
	binary.LittleEndian.PutUint64(zero[fStartZ:fStartZ+8], 0)
	bodyZ := zero[fStartZ : len(zero)-snapTrailerLen-4]
	binary.LittleEndian.PutUint32(zero[len(zero)-snapTrailerLen-4:], crc32.ChecksumIEEE(bodyZ))
	out["zero workers"] = zero
	return out
}

func TestSnapshotCorruptionDetected(t *testing.T) {
	ds := buildMany(t, 16)
	var buf bytes.Buffer
	if err := ds.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	for name, data := range snapshotCorruptions(buf.Bytes()) {
		if _, err := ReadSnapshot(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestOpenSnapshotMissingFile(t *testing.T) {
	if _, err := OpenSnapshot(filepath.Join(t.TempDir(), "nope.snap")); err == nil {
		t.Fatal("want error for missing file")
	}
}
