package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fairrank/internal/jobs"
	"fairrank/internal/store"
)

// dirListing lists the file names in dir.
func dirListing(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// shutdown stops s and closes its store.
func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.db.Close(); err != nil {
		t.Fatal(err)
	}
}

func reopen(t *testing.T, path string) *store.DB {
	t.Helper()
	db, err := store.Open(path, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestLegacyStoreRefused plants one record of each shape only 228bcbf
// and earlier read, and an unknown format stamp, in a store that
// otherwise holds what a boot would change: a queued job to requeue, an
// orphan snapshot file and a stray upload spill to sweep. New fails with
// an error naming the record's bucket, its key and 228bcbf, and leaves
// the WAL and both directories as they were.
func TestLegacyStoreRefused(t *testing.T) {
	digest := strings.Repeat("ab", 32)
	job := func(state, spec, result string) string {
		return `{"id":"job-000099","spec_hash":"h","spec":` + spec + `,"priority":0,"state":"` + state +
			`","attempt":1,"max_attempts":3,"enqueued_at":"2026-01-02T03:04:05Z"` + result + `}`
	}
	pinned := `{"dataset":"x","digest":"` + digest + `","weights":{"LanguageTest":1}}`
	unpinned := `{"dataset":"x","weights":{"LanguageTest":1}}`
	jsonResult := `{"dataset":"x","algorithm":"balanced","unfairness":0.5,"partitions":[]}`
	rows := []struct{ name, bucket, key, value string }{
		{"dataset record", "datasets", "legacy", "FRNKDS1\n\x00\x00\x00\x00"},
		{"audit record", "audits", "audit-000001", `{"id":"audit-000001","unfairness":0.1}`},
		{"ref without digest", "snapshots", "old", `{"name":"old","file":"old-0badf00d.snap","size":3}`},
		{"snapshot spec", "jobs", "job-000099", job("done", `{"snapshot":"x","weights":{"LanguageTest":1}}`, "")},
		{"queued without digest", "jobs", "job-000099", job("queued", unpinned, "")},
		{"running without digest", "jobs", "job-000099", job("running", unpinned, "")},
		{"embedded JSON result", "jobs", "job-000099", job("done", pinned, `,"result":`+jsonResult)},
		{"JSON result", "results", "job-000099", jsonResult},
		{"unknown stamp", bucketMeta, keyFormat, "fairrank-store-v0"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "srv.db")
			s, err := New(reopen(t, path), WithJobWorkers(-1))
			if err != nil {
				t.Fatal(err)
			}
			putDataset(t, s, "x", 40)
			sp, hash, err := s.decodeJob([]byte(unpinned))
			if err == nil {
				_, _, err = s.jobs.Submit(sp, hash)
			}
			if err != nil {
				t.Fatal(err)
			}
			shutdown(t, s)
			db := reopen(t, path)
			if err := db.Delete(bucketMeta, keyFormat); err != nil {
				t.Fatal(err)
			}
			if err := db.Put(row.bucket, row.key, []byte(row.value)); err != nil {
				t.Fatal(err)
			}
			for _, f := range []string{path + ".snapshots/orphan.snap", path + ".uploads/put-stray"} {
				if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			wal, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			snaps, uploads := dirListing(t, path+".snapshots"), dirListing(t, path+".uploads")

			_, err = New(db)
			if err == nil {
				t.Fatal("booted")
			}
			for _, want := range []string{`bucket "` + row.bucket + `"`, `key "` + row.key + `"`, "228bcbf"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %s", err, want)
				}
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, wal) {
				t.Errorf("refused boot changed the WAL: %d bytes, was %d", len(after), len(wal))
			}
			if got := dirListing(t, path+".snapshots"); !reflect.DeepEqual(got, snaps) {
				t.Errorf("snapshot directory %v, was %v", got, snaps)
			}
			if got := dirListing(t, path+".uploads"); !reflect.DeepEqual(got, uploads) {
				t.Errorf("upload directory %v, was %v", got, uploads)
			}
		})
	}
}

// TestUnstampedStoreUpgradesInPlace boots a store as 228bcbf wrote it:
// current records, no format stamp, and an upload session from before
// sessions expired. The boot stamps it, drops the session, and serves
// the same job bodies, list page and datasets as before. The next boot
// appends nothing and hashes no dataset, and the stamp survives a
// compaction and a reopen.
func TestUnstampedStoreUpgradesInPlace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "srv.db")
	s, err := New(reopen(t, path))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	uploadDataset(t, ts, "workers", 300)
	uploadSnapshot(t, ts, "probe", paperWorkers(t, 40, 7))
	lang := map[string]float64{"LanguageTest": 1}
	ids := []string{
		runJob(t, ts.URL, map[string]any{"dataset": "workers", "weights": lang}).ID,
		runJob(t, ts.URL, map[string]any{"dataset": "workers", "weights": lang, "algorithm": "all-attributes", "significance_rounds": 5}).ID,
	}
	served := func(base string) []string {
		out := []string{string(getBody(t, base+"/v1/datasets")), string(getBody(t, base+"/v1/jobs"))}
		for _, id := range ids {
			out = append(out, string(getBody(t, base+"/v1/jobs/"+id)))
		}
		return out
	}
	before := served(ts.URL)
	ts.Close()
	shutdown(t, s)

	// Unstamp the store, plant a session without "updated", and give the
	// probe's ref a digest no hash of its file gives: a boot that serves
	// that digest read it rather than hashed the file.
	db := reopen(t, path)
	fake := strings.Repeat("0f", 32)
	ref, _ := json.Marshal(store.SnapshotRef{Name: "probe", Digest: fake, File: hexDigest(paperWorkers(t, 40, 7)) + ".snap"})
	session := `{"token":"tok","dataset":"late","size":10,"file":"tok.part"}`
	for _, err := range []error{
		db.Delete(bucketMeta, keyFormat),
		db.Put("snapshots", "probe", ref),
		db.Put(bucketUploads, "tok", []byte(session)),
		os.WriteFile(path+".uploads/tok.part", make([]byte, 10), 0o644),
		db.Compact(),
		db.Close(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	stamps := func() int {
		t.Helper()
		wal, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Count(wal, []byte(storeFormat))
	}
	if n := stamps(); n != 0 {
		t.Fatalf("unstamped store holds %d stamps", n)
	}
	boot := func() *Server {
		t.Helper()
		s, err := New(reopen(t, path))
		if err != nil {
			t.Fatal(err)
		}
		s.mu.RLock()
		probe := digestOf(s.datasets["probe"])
		s.mu.RUnlock()
		if probe != fake {
			t.Fatalf("boot hashed the probe: digest %s, its ref says %s", probe, fake)
		}
		return s
	}

	s = boot()
	if n := stamps(); n != 1 {
		t.Fatalf("upgraded store holds %d stamps, want 1", n)
	}
	if _, ok := s.db.Get(bucketUploads, "tok"); ok || len(dirListing(t, path+".uploads")) != 0 {
		t.Fatal("session without updated kept")
	}
	ts = httptest.NewServer(s.Handler())
	if after := served(ts.URL); !reflect.DeepEqual(after, before) {
		t.Fatalf("after the upgrade:\n%s\nbefore:\n%s", strings.Join(after, "\n"), strings.Join(before, "\n"))
	}
	ts.Close()
	shutdown(t, s)

	// The next boot appends nothing. It compacts the store, and the boot
	// after that finds the stamp and appends nothing either.
	for _, compact := range []bool{true, false} {
		wal, _ := os.ReadFile(path)
		s = boot()
		if after, _ := os.ReadFile(path); !bytes.Equal(after, wal) {
			t.Fatalf("boot of a stamped store appended %d bytes", len(after)-len(wal))
		}
		if compact {
			if err := s.db.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		shutdown(t, s)
		if n := stamps(); n != 1 {
			t.Fatalf("store holds %d stamps, want 1", n)
		}
	}
}

// TestQueuedJobWithMaxAttemptsBoots: a store written before jobs ran
// once holds a queued job whose spec and record carry "max_attempts".
// It boots without a format refusal, runs the job once, and serves its
// body without the field.
func TestQueuedJobWithMaxAttemptsBoots(t *testing.T) {
	path := filepath.Join(t.TempDir(), "srv.db")
	s, err := New(reopen(t, path), WithJobWorkers(-1))
	if err != nil {
		t.Fatal(err)
	}
	putDataset(t, s, "x", 40)
	sp, hash, err := s.decodeJob([]byte(`{"dataset":"x","weights":{"LanguageTest":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	shutdown(t, s)
	record := `{"id":"job-000001","spec_hash":"` + hash + `","spec":{"dataset":"x","digest":"` + sp.Digest +
		`","weights":{"LanguageTest":1},"max_attempts":3},"priority":0,"state":"queued","attempt":0,` +
		`"max_attempts":3,"enqueued_at":"2026-01-02T03:04:05Z"}`
	db := reopen(t, path)
	if err := db.Put("jobs", "job-000001", []byte(record)); err != nil {
		t.Fatal(err)
	}

	s, err = New(db)
	if err != nil {
		t.Fatalf("boot refused: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdown(t, s)
	done := waitJobHTTP(t, ts.URL, "job-000001", jobs.StateDone)
	if done.Attempt != 1 || s.Jobs().Runs() != 1 {
		t.Fatalf("attempt %d after %d runs, want one run", done.Attempt, s.Jobs().Runs())
	}
	if body := getBody(t, ts.URL+"/v1/jobs/job-000001"); bytes.Contains(body, []byte("max_attempts")) {
		t.Fatalf("job body carries max_attempts: %s", body)
	}
}
