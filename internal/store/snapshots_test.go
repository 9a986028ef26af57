package store

import (
	"os"
	"path/filepath"
	"testing"
)

func openTestSnapshots(t *testing.T) (*DB, *Snapshots, string) {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(filepath.Join(dir, "db.log"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	snaps, err := NewSnapshots(db, filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	return db, snaps, dir
}

// spill writes content to a fresh file in dir, as an upload spill would,
// and returns its path.
func spill(t *testing.T, dir, content string) string {
	t.Helper()
	f, err := os.CreateTemp(dir, "spill-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(content); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return f.Name()
}

// adopt registers content, whose digest the test names, under name.
func adopt(t *testing.T, snaps *Snapshots, dir, name, digest, content string) string {
	t.Helper()
	if err := snaps.Adopt(name, digest, spill(t, dir, content)); err != nil {
		t.Fatal(err)
	}
	path, ok := pathOf(snaps, name)
	if !ok {
		t.Fatalf("no ref for %q after Adopt", name)
	}
	return path
}

func pathOf(snaps *Snapshots, name string) (string, bool) {
	ref, ok := snaps.Ref(name)
	return filepath.Join(snaps.Dir(), ref.File), ok
}

func snapFiles(t *testing.T, snaps *Snapshots) []string {
	t.Helper()
	entries, err := os.ReadDir(snaps.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

func TestSnapshotsSaveAndPath(t *testing.T) {
	_, snaps, dir := openTestSnapshots(t)
	payload := "columnar bytes"
	path := adopt(t, snaps, dir, "workers v1", "d1", payload)
	if path != filepath.Join(snaps.Dir(), "d1.snap") {
		t.Fatalf("Path = %q, want the file named by digest", path)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != payload {
		t.Fatalf("saved %q, want %q", got, payload)
	}
	ref, ok := snaps.Ref("workers v1")
	if !ok || ref.Size != int64(len(payload)) || ref.Digest != "d1" || ref.File != "d1.snap" {
		t.Fatalf("Ref = %+v, %v", ref, ok)
	}
	if refs := snaps.Refs(); len(refs) != 1 {
		t.Fatalf("Refs = %v", refs)
	}
	if files := snapFiles(t, snaps); len(files) != 1 {
		t.Fatalf("snapshot dir holds %v, want one file", files)
	}
}

func TestSnapshotsSaveReplaces(t *testing.T) {
	_, snaps, dir := openTestSnapshots(t)
	first := adopt(t, snaps, dir, "d", "d1", "one")
	path := adopt(t, snaps, dir, "d", "d2", "two")
	got, _ := os.ReadFile(path)
	if string(got) != "two" {
		t.Fatalf("after replace: %q", got)
	}
	if refs := snaps.Refs(); len(refs) != 1 {
		t.Fatalf("Refs = %v", refs)
	}
	if _, err := os.Stat(first); !os.IsNotExist(err) {
		t.Fatal("replace kept the old file no ref names")
	}
}

func TestSnapshotsFailedWriteLeavesNothing(t *testing.T) {
	_, snaps, dir := openTestSnapshots(t)
	if err := snaps.Adopt("broken", "d1", filepath.Join(dir, "no-such-spill")); err == nil {
		t.Fatal("adopting a missing file succeeded")
	}
	if _, ok := pathOf(snaps, "broken"); ok {
		t.Fatal("failed adopt registered a ref")
	}
	if files := snapFiles(t, snaps); len(files) != 0 {
		t.Fatalf("failed adopt left files: %v", files)
	}
	if err := snaps.Adopt("", "d1", spill(t, dir, "x")); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := snaps.Adopt("x", "", spill(t, dir, "x")); err == nil {
		t.Fatal("empty digest accepted")
	}
}

func TestSnapshotsAdopt(t *testing.T) {
	_, snaps, dir := openTestSnapshots(t)
	src := spill(t, dir, "spilled")
	if err := snaps.Adopt("uploaded", "d1", src); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(src); !os.IsNotExist(err) {
		t.Fatal("adopt left the source file behind")
	}
	path, _ := pathOf(snaps, "uploaded")
	got, _ := os.ReadFile(path)
	if string(got) != "spilled" {
		t.Fatalf("adopted content %q", got)
	}
}

func TestSnapshotsDelete(t *testing.T) {
	_, snaps, dir := openTestSnapshots(t)
	path := adopt(t, snaps, dir, "d", "d1", "x")
	if err := snaps.Delete("d"); err != nil {
		t.Fatal(err)
	}
	if _, ok := pathOf(snaps, "d"); ok {
		t.Fatal("ref survived delete")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("file survived delete")
	}
	if err := snaps.Delete("d"); err != nil {
		t.Fatal("double delete should be a no-op:", err)
	}
}

// TestSnapshotsSharedContent: identical content under two names is one
// file, kept until the last ref naming it goes, and a replaced name keeps
// the file another name still holds.
func TestSnapshotsSharedContent(t *testing.T) {
	_, snaps, dir := openTestSnapshots(t)
	a := adopt(t, snaps, dir, "a", "d1", "same")
	b := adopt(t, snaps, dir, "b", "d1", "same")
	if a != b {
		t.Fatalf("identical content stored twice: %s and %s", a, b)
	}
	if files := snapFiles(t, snaps); len(files) != 1 {
		t.Fatalf("snapshot dir holds %v, want one file", files)
	}
	// Repointing one name keeps the file the other still names.
	adopt(t, snaps, dir, "a", "d2", "other")
	if _, err := os.Stat(b); err != nil {
		t.Fatal("replace removed a file another ref names")
	}
	if err := snaps.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(b); !os.IsNotExist(err) {
		t.Fatal("file survived its last ref")
	}
	if files := snapFiles(t, snaps); len(files) != 1 {
		t.Fatalf("snapshot dir holds %v, want only a's file", files)
	}
}

// TestSnapshotsSetDigest: a ref written before refs carried a digest
// gains one in place; its file keeps its name.
func TestSnapshotsSetDigest(t *testing.T) {
	db, snaps, _ := openTestSnapshots(t)
	legacy := filepath.Join(snaps.Dir(), "demo-1234abcd.snap")
	if err := os.WriteFile(legacy, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := db.Put(bucketSnapshots, "demo", []byte(`{"name":"demo","file":"demo-1234abcd.snap","size":3}`)); err != nil {
		t.Fatal(err)
	}
	if err := snaps.SetDigest("demo", "d1"); err != nil {
		t.Fatal(err)
	}
	ref, ok := snaps.Ref("demo")
	if !ok || ref.Digest != "d1" || ref.File != "demo-1234abcd.snap" || ref.Size != 3 {
		t.Fatalf("Ref = %+v, %v", ref, ok)
	}
	if err := snaps.SetDigest("missing", "d1"); err == nil {
		t.Fatal("SetDigest on an unknown name succeeded")
	}
}

func TestSnapshotsSweep(t *testing.T) {
	_, snaps, dir := openTestSnapshots(t)
	kept := adopt(t, snaps, dir, "keep", "d1", "k")
	// Crash residue: an unreferenced snapshot and a stale temp file.
	orphan := filepath.Join(snaps.Dir(), "orphan-deadbeef.snap")
	stale := filepath.Join(snaps.Dir(), ".tmp-123")
	os.WriteFile(orphan, []byte("o"), 0o644)
	os.WriteFile(stale, []byte("t"), 0o644)
	removed, err := snaps.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("removed %v, want 2 entries", removed)
	}
	if _, err := os.Stat(kept); err != nil {
		t.Fatal("sweep removed a referenced snapshot")
	}
	for _, p := range []string{orphan, stale} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("sweep left %s", p)
		}
	}
}

func TestSnapshotsPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "db.log")
	db, err := Open(dbPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := NewSnapshots(db, filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	path := adopt(t, snaps, dir, "durable", "d1", "d")
	db.Close()

	db2, err := Open(dbPath, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	snaps2, err := NewSnapshots(db2, filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	p, ok := pathOf(snaps2, "durable")
	if !ok || p != path {
		t.Fatalf("after reopen: Path = %q, %v; want %q", p, ok, path)
	}
	if ref, _ := snaps2.Ref("durable"); ref.Digest != "d1" {
		t.Fatalf("after reopen: digest %q, want d1", ref.Digest)
	}
	if _, err := os.Stat(p); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotsDistinctNamesDistinctFiles(t *testing.T) {
	// Names that would flatten to the same safe form hold distinct
	// content in distinct files: files are named by content, not name.
	_, snaps, dir := openTestSnapshots(t)
	a := adopt(t, snaps, dir, "a b", "d1", "one")
	b := adopt(t, snaps, dir, "a/b", "d2", "two")
	if a == b {
		t.Fatal("distinct content shares a file")
	}
}
