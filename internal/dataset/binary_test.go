package dataset_test

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/simulate"
)

// legacyFixture holds simulate.PaperWorkers(40, 42) in the legacy binary
// format, written by that format's last writer.
const legacyFixture = "testdata/paper-40-seed-42.frnkds1"

func readFixture(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestBinaryRoundTrip: the reader inverts what the last writer wrote. The
// fixture decodes to the population it was generated from, equal in every
// byte of the canonical snapshot encoding (Digest).
func TestBinaryRoundTrip(t *testing.T) {
	want, err := simulate.PaperWorkers(40, 42)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dataset.ReadBinary(bytes.NewReader(readFixture(t)))
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != want.N() {
		t.Fatalf("N = %d, want %d", got.N(), want.N())
	}
	if got.Digest() != want.Digest() {
		t.Fatalf("digest %x, want %x", got.Digest(), want.Digest())
	}
}

func TestBinaryDetectsBadMagic(t *testing.T) {
	if _, err := dataset.ReadBinary(strings.NewReader("NOTMAGIC rest")); !errors.Is(err, dataset.ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
	if _, err := dataset.ReadBinary(strings.NewReader("")); !errors.Is(err, dataset.ErrCorrupt) {
		t.Fatalf("empty err = %v", err)
	}
}

func TestBinaryDetectsTruncation(t *testing.T) {
	full := readFixture(t)
	for _, cut := range []int{len(full) - 1, len(full) - 5, len(full) / 2, 12} {
		if _, err := dataset.ReadBinary(bytes.NewReader(full[:cut])); !errors.Is(err, dataset.ErrCorrupt) {
			t.Errorf("truncation at %d not detected: %v", cut, err)
		}
	}
}

// TestBinaryDetectsBitFlips: the trailing checksum covers every byte after
// the magic, so no single flipped byte decodes.
func TestBinaryDetectsBitFlips(t *testing.T) {
	full := readFixture(t)
	for pos := range full {
		corrupted := append([]byte(nil), full...)
		corrupted[pos] ^= 0xFF
		if _, err := dataset.ReadBinary(bytes.NewReader(corrupted)); !errors.Is(err, dataset.ErrCorrupt) {
			t.Fatalf("bit flip at %d not detected: %v", pos, err)
		}
	}
}
